//! `search_scan` and `search_seeded`: the `fabp_search` binary from files
//! to the hit TSV.
//!
//! End-to-end runs time the real binary, one process per search, as a
//! user runs it. Traced runs replay the binary's per-search calls into
//! the library in-process, with a span around each layer.

use crate::check::{self, Expected, InputShape, Region, INDEX_SHARDS, THRESHOLD};
use crate::{ms, setup_due, span, Args, Layers, Measured, MIN_SETUPS};
use fabp_bio::fasta::{read_proteins, read_records, write_records, Record};
use fabp_bio::generate::PlantedDatabase;
use fabp_bio::seq::RnaSeq;
use fabp_core::aligner::{Engine, FabpAligner, SearchOutcome, Threshold};
use fabp_core::index::{search_index, PrefilterMode, ReferenceIndex, SeedParams};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One search workload.
pub struct SearchWorkload {
    inputs: InputShape,
    /// Search a persistent index through the seeded prefilter instead of
    /// scanning the FASTA reference.
    seeded: bool,
}

// Query shape from `bench_perf`'s pinned full workload: 34-aa queries
// (its acceptance-criterion query), sixteen per search as in its batch
// entries. The references are cut down from its 10 Mbases so that a run
// holds tens of searches.

/// Sixteen 34-aa queries against 256 kbases in four FASTA records,
/// exhaustive scan.
pub const SCAN: SearchWorkload = SearchWorkload {
    inputs: InputShape {
        queries: 16,
        query_aa: 34,
        reference_bases: 256 << 10,
        contigs: 4,
    },
    seeded: false,
};

/// Sixteen 34-aa queries against a 1-Mbase index, seeded.
pub const SEEDED: SearchWorkload = SearchWorkload {
    inputs: InputShape {
        queries: 16,
        query_aa: 34,
        reference_bases: 1 << 20,
        contigs: 4,
    },
    seeded: true,
};

/// Workers given to `fabp_search`: one per core of the two-core host.
const THREADS: usize = 2;
/// Regions printed per query and reference.
const TOP: usize = 10;

/// Input files, relative to the directory `fabp_search` runs in, so the
/// index name it prints is the same in every directory.
const QUERIES: &str = "queries.faa";
const REFERENCE: &str = "reference.fna";
const INDEX: &str = "reference.fabpidx";

/// One TSV row: query id, reference name, region and `max_score`.
type Row = (String, String, Region, usize);

/// The expected output of one search, per query and reference.
struct Oracle {
    reference: RnaSeq,
    /// `(query id, reference name)` → (the reference's bases, oracle).
    groups: BTreeMap<(String, String), (Range<usize>, Expected)>,
}

impl Oracle {
    fn new(db: &PlantedDatabase, workload: &SearchWorkload) -> Oracle {
        let bases = db.reference.len();
        let records: Vec<(String, Range<usize>)> = if workload.seeded {
            vec![(INDEX.to_string(), 0..bases)]
        } else {
            let len = bases / workload.inputs.contigs;
            (0..workload.inputs.contigs)
                .map(|c| (contig_id(c), c * len..(c + 1) * len))
                .collect()
        };
        let mut groups = BTreeMap::new();
        for (q, protein) in db.queries.iter().enumerate() {
            for (name, range) in &records {
                let sites: Vec<usize> = db
                    .regions
                    .iter()
                    .filter(|r| r.query_index == q && range.contains(&r.position))
                    .map(|r| r.position - range.start)
                    .collect();
                let expected =
                    Expected::new(protein, &db.reference.as_slice()[range.clone()], &sites);
                groups.insert((query_id(q), name.clone()), (range.clone(), expected));
            }
        }
        Oracle {
            reference: db.reference.clone(),
            groups,
        }
    }

    fn check(&self, rows: &[Row]) -> bool {
        let mut got: BTreeMap<&(String, String), Vec<&Region>> = BTreeMap::new();
        for (query, reference, region, max_score) in rows {
            let key = (query.clone(), reference.clone());
            match self.groups.get_key_value(&key) {
                Some((key, (_, expected))) if *max_score == expected.golden.len() => {
                    got.entry(key).or_default().push(region)
                }
                _ => return false,
            }
        }
        self.groups.iter().all(|(key, (range, expected))| {
            let reported = got.remove(key).unwrap_or_default();
            let mut distinct = reported.clone();
            distinct.sort();
            distinct.dedup();
            let wanted = expected.regions();
            let reference = &self.reference.as_slice()[range.clone()];
            distinct.len() == reported.len()
                && reported.len() <= TOP
                && wanted.iter().all(|r| reported.contains(&r))
                && reported
                    .iter()
                    .filter(|r| !wanted.contains(r))
                    .all(|r| expected.confirms_extra(reference, r))
        })
    }
}

fn query_id(q: usize) -> String {
    format!("query{q}")
}

fn contig_id(c: usize) -> String {
    format!("contig{c}")
}

fn write_fasta(path: &Path, records: &[Record]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(err)?);
    write_records(&mut out, records, 80).map_err(err)?;
    out.flush().map_err(err)
}

/// Writes the queries and the reference records into a new `dir`.
fn write_inputs(db: &PlantedDatabase, workload: &SearchWorkload, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let queries: Vec<Record> = db
        .queries
        .iter()
        .enumerate()
        .map(|(q, p)| Record::new(query_id(q), p.to_string()))
        .collect();
    let len = db.reference.len() / workload.inputs.contigs;
    let contigs: Vec<Record> = db
        .reference
        .as_slice()
        .chunks(len)
        .enumerate()
        .map(|(c, bases)| {
            let dna = RnaSeq::from(bases.to_vec()).to_string().replace('U', "T");
            Record::new(contig_id(c), dna)
        })
        .collect();
    write_fasta(&dir.join(QUERIES), &queries)?;
    write_fasta(&dir.join(REFERENCE), &contigs)
}

/// Runs `fabp_search` with `args` in `dir`, returning its stdout.
fn run_cli(bin: &Path, dir: &Path, args: &[String]) -> Result<String, String> {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "fabp_search {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|_| "fabp_search printed invalid UTF-8".into())
}

fn parse_tsv(stdout: &str) -> Option<Vec<Row>> {
    stdout
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 8 {
                return None;
            }
            let region = Region {
                start: f[2].parse().ok()?,
                end: f[3].parse().ok()?,
                best_pos: f[4].parse().ok()?,
                score: f[5].parse().ok()?,
                hits: f[7].parse().ok()?,
            };
            Some((
                f[0].to_string(),
                f[1].to_string(),
                region,
                f[6].parse().ok()?,
            ))
        })
        .collect()
}

/// One end-to-end search: the `fabp_search` process from start to exit.
fn cli_search(workload: &SearchWorkload, bin: &Path, dir: &Path) -> (Duration, Option<Vec<Row>>) {
    let reference = if workload.seeded {
        ["--index", INDEX, "--prefilter", "seeded"].as_slice()
    } else {
        ["--reference", REFERENCE].as_slice()
    };
    let cli: Vec<String> = ["--query", QUERIES]
        .iter()
        .chain(reference)
        .map(|s| s.to_string())
        .chain([
            "--threshold".into(),
            THRESHOLD.to_string(),
            "--top".into(),
            TOP.to_string(),
            "--threads".into(),
            THREADS.to_string(),
            "--quiet".into(),
        ])
        .collect();
    let start = Instant::now();
    let stdout = run_cli(bin, dir, &cli);
    let took = start.elapsed();
    match stdout {
        Ok(stdout) => (took, parse_tsv(&stdout)),
        Err(e) => {
            eprintln!("# {e}");
            (took, None)
        }
    }
}

/// Ranks regions by score and keeps the printed ones, as `fabp_search` does.
fn ranked(outcome: &SearchOutcome) -> Vec<Region> {
    let mut regions = outcome.regions();
    regions.sort_by_key(|r| std::cmp::Reverse(r.best.score));
    regions
        .into_iter()
        .take(TOP)
        .map(|r| Region {
            start: r.start,
            end: r.end,
            best_pos: r.best.position,
            score: r.best.score,
            hits: r.hit_count,
        })
        .collect()
}

/// One traced search: the binary's calls into the library, each layer
/// inside a span.
fn traced_search(
    workload: &SearchWorkload,
    dir: &Path,
    layers: &mut Layers,
) -> Result<Vec<Row>, String> {
    let threshold = Threshold::Fraction(THRESHOLD);
    let queries = span(&mut layers.query_parse_ms, || {
        read_proteins(File::open(dir.join(QUERIES)).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())
    })?;
    let mut rows = Vec::new();
    if workload.seeded {
        let index = span(&mut layers.reference_ms, || {
            ReferenceIndex::load(dir.join(INDEX))
        })
        .map_err(|e| e.to_string())?;
        let proteins: Vec<_> = queries.iter().map(|(_, p)| p.clone()).collect();
        let (hits, stats) = span(&mut layers.scan_ms, || {
            search_index(
                &index,
                &proteins,
                threshold,
                PrefilterMode::Seeded,
                SeedParams::default(),
                THREADS,
            )
        })
        .map_err(|e| e.to_string())?;
        layers.seed_hits += stats.seed_hits as f64;
        layers.candidate_windows += stats.candidate_windows as f64;
        layers.scanned_fraction += stats.scanned_fraction();
        for ((id, protein), hits) in queries.iter().zip(hits) {
            let query_len = 3 * protein.len();
            let outcome = SearchOutcome {
                hits,
                threshold: threshold.resolve(query_len),
                query_len,
                stats: None,
            };
            for region in span(&mut layers.merge_ms, || ranked(&outcome)) {
                rows.push((id.clone(), INDEX.to_string(), region, query_len));
            }
        }
    } else {
        let records = span(&mut layers.reference_ms, || {
            read_records(File::open(dir.join(REFERENCE)).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())
        })?;
        layers.scanned_fraction += 1.0;
        for (id, protein) in &queries {
            let aligner = span(&mut layers.build_ms, || {
                FabpAligner::builder()
                    .protein_query(protein)
                    .threshold(threshold)
                    .engine(Engine::Software { threads: THREADS })
                    .build()
            })
            .map_err(|e| e.to_string())?;
            // `fabp_search` parses each reference record once per query.
            for record in &records {
                let reference: RnaSeq = span(&mut layers.reference_ms, || record.sequence.parse())
                    .map_err(|e| format!("{e}"))?;
                let outcome = span(&mut layers.scan_ms, || aligner.search(&reference));
                for region in span(&mut layers.merge_ms, || ranked(&outcome)) {
                    rows.push((id.clone(), record.id.clone(), region, outcome.query_len));
                }
            }
        }
    }
    Ok(rows)
}

/// The program's set-up in a directory holding freshly written inputs:
/// the `--build-index` run on the seeded path. The exhaustive path has
/// no set-up step of its own (every search reads the FASTA files), so
/// there the first search, which must be correct, stands in for it.
fn set_up(
    workload: &SearchWorkload,
    args: &Args,
    oracle: &Oracle,
    dir: &Path,
) -> Result<Duration, String> {
    if workload.seeded {
        let shard_bases = workload.inputs.reference_bases / INDEX_SHARDS;
        let build = [
            "--reference".to_string(),
            REFERENCE.into(),
            "--build-index".into(),
            INDEX.into(),
            "--index-shard-bases".into(),
            shard_bases.to_string(),
        ];
        let start = Instant::now();
        run_cli(&args.search_bin, dir, &build)?;
        Ok(start.elapsed())
    } else {
        let (took, rows) = cli_search(workload, &args.search_bin, dir);
        if !rows.is_some_and(|rows| oracle.check(&rows)) {
            return Err("the first search returned wrong hits".into());
        }
        Ok(took)
    }
}

/// Writes fresh inputs into `dir`, replacing any earlier ones, and times
/// the program's set-up there, in s.
fn fresh_set_up(
    workload: &SearchWorkload,
    args: &Args,
    db: &PlantedDatabase,
    oracle: &Oracle,
    dir: &Path,
) -> Result<f64, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    write_inputs(db, workload, dir)?;
    Ok(set_up(workload, args, oracle, dir)?.as_secs_f64())
}

pub fn run(workload: &SearchWorkload, args: &Args) -> Result<Measured, String> {
    let db = check::generate(args.seed, &workload.inputs);
    let oracle = Oracle::new(&db, workload);
    let mut measured = Measured::default();
    // The measured searches run where the first set-up left its inputs;
    // each later set-up starts over in a second directory.
    let dir = args.work_dir.join("search");
    let spare = args.work_dir.join("setup");
    let set_up_in = |dir: &Path| fresh_set_up(workload, args, &db, &oracle, dir);
    measured.setups_s.push(set_up_in(&dir)?);
    let queries = db.queries.len() as f64;

    let mut layers = Layers::default();
    let search = |layers: &mut Layers| -> (Duration, bool) {
        if args.trace {
            let start = Instant::now();
            let rows = traced_search(workload, &dir, layers);
            let took = start.elapsed();
            match rows {
                Ok(rows) => (took, oracle.check(&rows)),
                Err(e) => {
                    eprintln!("# traced search failed: {e}");
                    (took, false)
                }
            }
        } else {
            let (took, rows) = cli_search(workload, &args.search_bin, &dir);
            (took, rows.is_some_and(|rows| oracle.check(&rows)))
        }
    };
    // One untimed search brings the binary and the files into the page
    // cache, as for a user who searches repeatedly.
    let (_, warm_ok) = search(&mut Layers::default());
    if !warm_ok {
        return Err("the warm-up search returned wrong hits".into());
    }

    let start = Instant::now();
    loop {
        let (took, ok) = search(&mut layers);
        measured.attempted += 1;
        measured.failed += u64::from(!ok);
        measured.latencies_ms.push(ms(took));
        let progress = start.elapsed().as_secs_f64() / args.seconds;
        if progress >= 1.0 {
            break;
        }
        while setup_due(&measured.setups_s, progress) {
            measured.setups_s.push(set_up_in(&spare)?);
        }
    }
    while measured.setups_s.len() < MIN_SETUPS {
        measured.setups_s.push(set_up_in(&spare)?);
    }

    let n = measured.attempted as f64;
    for per_search in [
        &mut layers.query_parse_ms,
        &mut layers.reference_ms,
        &mut layers.build_ms,
        &mut layers.scan_ms,
        &mut layers.merge_ms,
        &mut layers.scanned_fraction,
        &mut layers.seed_hits,
        &mut layers.candidate_windows,
    ] {
        *per_search /= n;
    }
    layers.scan_ns_per_base = layers.scan_ms * 1e6 / (queries * db.reference.len() as f64);
    measured.layers = layers;
    Ok(measured)
}
