//! End-to-end tests of the `fabp_search` and `fabp_serve` command-line
//! binaries.

use fabp::bio::fasta::{write_records, Record};
use fabp::bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
use fabp::bio::seq::{ProteinSeq, RnaSeq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fabp_cli_{}_{name}", std::process::id()));
    fs::write(&p, contents).unwrap();
    p
}

#[test]
fn cli_finds_planted_hit() {
    let query = temp_file("q.faa", ">q1 demo\nMFSR\n");
    // DNA spelling of AUG UUC UCA AGA planted at offset 4.
    let reference = temp_file("db.fna", ">db1\nGGGGATGTTCTCAAGAGGGG\n");

    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args([
            "--query",
            query.to_str().unwrap(),
            "--reference",
            reference.to_str().unwrap(),
            "--threshold",
            "1.0",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let hit_line = stdout
        .lines()
        .find(|l| l.starts_with("q1\t"))
        .unwrap_or_else(|| panic!("no hit line in output:\n{stdout}"));
    let fields: Vec<&str> = hit_line.split('\t').collect();
    assert_eq!(fields[1], "db1");
    assert_eq!(fields[4], "4", "best position");
    assert_eq!(fields[5], "12", "score");
    assert_eq!(fields[6], "12", "max score");

    fs::remove_file(query).ok();
    fs::remove_file(reference).ok();
}

#[test]
fn cli_cycle_engine_reports_stats() {
    let query = temp_file("q2.faa", ">q\nMF\n");
    let reference = temp_file("db2.fna", ">r\nAAATGTTTAAA\n");
    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args([
            "--query",
            query.to_str().unwrap(),
            "--reference",
            reference.to_str().unwrap(),
            "--engine",
            "cycle",
            "--stats",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("cycles"), "stats missing: {stderr}");

    fs::remove_file(query).ok();
    fs::remove_file(reference).ok();
}

#[test]
fn cli_rejects_missing_files_and_bad_engine() {
    let status = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args([
            "--query",
            "/nonexistent.faa",
            "--reference",
            "/nonexistent.fna",
        ])
        .output()
        .expect("binary runs");
    assert!(!status.status.success());

    let query = temp_file("q3.faa", ">q\nMF\n");
    let reference = temp_file("db3.fna", ">r\nACGT\n");
    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args([
            "--query",
            query.to_str().unwrap(),
            "--reference",
            reference.to_str().unwrap(),
            "--engine",
            "quantum",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("invalid value \"quantum\" for --engine"),
        "{stderr}"
    );

    fs::remove_file(query).ok();
    fs::remove_file(reference).ok();
}

#[test]
fn cli_usage_on_no_args() {
    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}

#[test]
fn cli_metrics_and_trace_outputs_are_parseable() {
    let query = temp_file("q4.faa", ">q\nMFSRMFSR\n");
    let reference = temp_file(
        "db4.fna",
        ">r\nGGGGATGTTCTCAAGAATGTTCTCAAGAGGGGACGTACGTACGTACGTACGT\n",
    );
    let metrics = temp_file("m.prom", "");
    let trace = temp_file("t.json", "");

    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args([
            "--query",
            query.to_str().unwrap(),
            "--reference",
            reference.to_str().unwrap(),
            "--engine",
            "cycle",
            "--threshold",
            "0.5",
            "--quiet",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // --quiet suppresses all informational stderr.
    assert!(
        output.stderr.is_empty(),
        "quiet run wrote stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Prometheus exposition: >= 10 distinct metric names, including the
    // headline engine/host series, and every sample line parses.
    let prom = fs::read_to_string(&metrics).unwrap();
    let mut names = std::collections::BTreeSet::new();
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            names.insert(rest.split(' ').next().unwrap().to_string());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample line: {line}"
        );
    }
    assert!(
        names.len() >= 10,
        "expected >= 10 distinct metrics, got {}: {names:?}",
        names.len()
    );
    for required in [
        "fabp_axi_stall_cycles_total",
        "fabp_engine_beats_total",
        "fabp_hits_total",
        "fabp_host_stage_seconds",
    ] {
        assert!(names.contains(required), "missing {required} in {names:?}");
    }

    // Chrome trace: structurally valid JSON with the modelled host
    // pipeline stages present as complete events.
    let trace_text = fs::read_to_string(&trace).unwrap();
    assert!(trace_text.starts_with("{\"traceEvents\": ["));
    assert_eq!(
        trace_text.matches('{').count(),
        trace_text.matches('}').count()
    );
    for stage in [
        "end_to_end",
        "encode",
        "query_transfer",
        "kernel",
        "readback",
    ] {
        assert!(
            trace_text.contains(&format!("\"name\": \"{stage}\"")),
            "trace missing stage {stage}"
        );
    }

    fs::remove_file(query).ok();
    fs::remove_file(reference).ok();
    fs::remove_file(metrics).ok();
    fs::remove_file(trace).ok();
}

#[test]
fn cli_names_flag_on_missing_or_bad_value() {
    // Missing value: the error names the flag left dangling.
    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args(["--query", "q.faa", "--reference", "db.fna", "--threshold"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("missing value for --threshold"),
        "stderr: {stderr}"
    );

    // Unparseable value: the error names both the flag and the value.
    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args(["--query", "q.faa", "--reference", "db.fna", "--top", "many"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("invalid value \"many\" for --top"),
        "stderr: {stderr}"
    );

    // A match fraction outside [0, 1] is rejected, not clamped.
    for bad in ["NaN", "-3", "7"] {
        let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
            .args(["--query", "q.faa", "--reference", "db.fna"])
            .args(["--threshold", bad])
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(2), "--threshold {bad}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("invalid value {bad:?} for --threshold")),
            "stderr: {stderr}"
        );
    }
    let output = serve(&["--threshold", "NaN"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("invalid value \"NaN\" for --threshold"),
        "stderr: {stderr}"
    );
}

/// Runs `fabp_serve` on a small synthetic workload with `extra` flags.
fn serve(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fabp_serve"))
        .args(["--synthetic-bases", "6000", "--synthetic-queries", "2"])
        .args(["--query-len", "8", "--quiet"])
        .args(extra)
        .output()
        .expect("binary runs")
}

#[test]
fn serve_cli_fails_over_a_killed_node_and_rejects_removed_options() {
    // One replica per shard: the killed node's shard fails over and
    // every planted query still hits.
    let output = serve(&[
        "--backend",
        "fleet",
        "--nodes",
        "3",
        "--replication",
        "1",
        "--inject-faults",
        "kill@1:50",
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    assert!(rows.iter().all(|r| r[3] == "ok" && r[4] != "0"), "{stdout}");
    assert!(stderr.contains("failovers=2"), "stderr: {stderr}");

    // The cluster backend and the resilience level are gone, and a
    // malformed fault spec fails at startup.
    let output = serve(&["--backend", "cluster"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("invalid value \"cluster\" for --backend"),
        "{stderr}"
    );
    let output = serve(&["--backend", "fleet", "--resilience", "recover"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown argument \"--resilience\""));
    let output = serve(&["--backend", "fleet", "--inject-faults", "kill@x"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("invalid fault spec"));
}

#[test]
fn serve_cli_bounds_the_node_count_before_building_the_fleet() {
    // The bound is checked as the flag is parsed: no fleet state is
    // sized by the value.
    for nodes in ["1025", "18446744073709551615"] {
        let output = serve(&["--backend", "fleet", "--nodes", nodes]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "--nodes {nodes}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "invalid value \"{nodes}\" for --nodes (at most 1024)"
            )),
            "--nodes {nodes}: {stderr}"
        );
    }
}

#[test]
fn a_wide_fleet_trace_holds_no_repeated_span_id() {
    // 128 nodes: shard 100's span id once equalled the `query_cache`
    // event's, both children of the request's batch span.
    let trace = std::env::temp_dir().join(format!("fabp-wide-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_fabp_serve"))
        .args(["--synthetic-bases", "60000", "--synthetic-queries", "2"])
        .args(["--backend", "fleet", "--nodes", "128", "--replication", "1"])
        .args(["--quiet", "--trace-out", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let json = fs::read_to_string(&trace).unwrap();
    fs::remove_file(&trace).ok();
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
        line[at..at + 16].to_string()
    };
    let mut seen = std::collections::HashSet::new();
    for line in json.lines().filter(|l| l.contains("\"span_id\"")) {
        let id = (field(line, "trace_id"), field(line, "span_id"));
        assert!(seen.insert(id), "repeated span id: {line}");
    }
    assert!(seen.len() > 2 * 128, "{} events", seen.len());
}

#[test]
fn serve_cli_rejects_a_kill_of_a_node_the_fleet_lacks() {
    // Four nodes are 0..=3: killing node 9 would otherwise be a no-op
    // that reports a healthy run.
    let output = serve(&[
        "--backend",
        "fleet",
        "--nodes",
        "4",
        "--replication",
        "1",
        "--inject-faults",
        "kill@9:50",
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("kill@9:50"), "stderr: {stderr}");
}

#[test]
fn search_cli_rejects_a_node_kill_on_its_one_device() {
    let query = temp_file("qk.faa", ">q\nMF\n");
    let reference = temp_file("dbk.fna", ">r\nAAATGTTTAAA\n");
    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args([
            "--query",
            query.to_str().unwrap(),
            "--reference",
            reference.to_str().unwrap(),
            "--engine",
            "cycle",
            "--resilience",
            "recover",
            "--inject-faults",
            "kill@0:1",
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("kill@0:1"), "stderr: {stderr}");
    fs::remove_file(query).ok();
    fs::remove_file(reference).ok();
}

/// Runs `command`, reads one line of its stdout, closes the pipe while
/// rows are still to come, and waits for the exit.
fn first_line_then_close(command: &mut Command) -> (String, Output) {
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    (first, child.wait_with_output().unwrap())
}

/// The exit of a run whose reader went away early: success, no panic.
fn assert_clean_early_close(what: &str, (first, output): (String, Output)) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(first.starts_with("# "), "{what}: first line {first:?}");
    assert!(
        output.status.success(),
        "{what}: {:?}, stderr: {stderr}",
        output.status
    );
    assert!(!stderr.contains("panicked"), "{what}: stderr: {stderr}");
}

#[test]
fn search_cli_exits_cleanly_when_stdout_closes_early() {
    // 6 000 records, each holding Met-Phe once: far more rows than a
    // pipe buffers, on both the FASTA and the index path.
    let query = temp_file("qpipe.faa", ">q\nMF\n");
    let records: String = (0..6_000)
        .map(|i| format!(">r{i}\nAAATGTTTAAA\n"))
        .collect();
    let reference = temp_file("dbpipe.fna", &records);
    let index = temp_file("dbpipe.fabpidx", "");
    let search = || Command::new(env!("CARGO_BIN_EXE_fabp_search"));
    let built = search()
        .args(["--reference", reference.to_str().unwrap()])
        .args(["--build-index", index.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(built.status.success(), "{built:?}");

    let rows = ["--threshold", "1.0", "--top", "100000", "--quiet"];
    assert_clean_early_close(
        "--reference",
        first_line_then_close(
            search()
                .args(["--query", query.to_str().unwrap()])
                .args(["--reference", reference.to_str().unwrap()])
                .args(rows),
        ),
    );
    assert_clean_early_close(
        "--index",
        first_line_then_close(
            search()
                .args(["--query", query.to_str().unwrap()])
                .args(["--index", index.to_str().unwrap(), "--prefilter", "off"])
                .args(rows),
        ),
    );
    for path in [query, reference, index] {
        fs::remove_file(path).ok();
    }
}

#[test]
fn serve_cli_exits_cleanly_when_stdout_closes_early() {
    // One TSV row per query: 3 000 rows outgrow the pipe buffer.
    assert_clean_early_close(
        "fabp_serve",
        first_line_then_close(
            Command::new(env!("CARGO_BIN_EXE_fabp_serve"))
                .args(["--synthetic-bases", "20000", "--synthetic-queries", "3000"])
                .arg("--quiet"),
        ),
    );
}

#[test]
fn search_cli_rejects_flags_of_another_mode() {
    // Each flag belongs to one mode; elsewhere it is a usage error that
    // names it, not a silent no-op. A case is a mode's command line and
    // flags that do not belong to it, the first of them named.
    let build = "--reference db.fna --build-index x.fabpidx";
    let index = "--query q.faa --index x.fabpidx";
    let fasta = "--query q.faa --reference db.fna";
    let cases = [
        (fasta, "--prefilter seeded"),
        (build, "--prefilter off"),
        (fasta, "--index-overlap 90"),
        (index, "--index-shard-bases 4096"),
        (index, "--disasm"),
        (build, "--query q.faa"),
        (build, "--engine cycle"),
        (build, "--threshold 0.5"),
        (build, "--top 3"),
        (build, "--threads 9"),
        (build, "--resilience recover"),
        (build, "--inject-faults stall@1:5"),
        // No engine choice on an index, and nothing for the resilience
        // harness to drive but the cycle engine.
        (index, "--engine cycle"),
        (index, "--engine software"),
        (index, "--resilience recover"),
        (index, "--resilience off"),
        (index, "--inject-faults seed:0xBEEF"),
        (fasta, "--resilience recover"),
        (fasta, "--resilience off --engine software"),
        (fasta, "--inject-faults seed:0xBEEF"),
    ];
    for (mode, extra) in cases {
        let args: Vec<&str> = mode.split(' ').chain(extra.split(' ')).collect();
        let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        let flag = extra.split(' ').next().unwrap_or_default();
        let message = format!("{flag} requires");
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
    }
    // So is an engine the binary does not have.
    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args(fasta.split(' ').chain(["--engine", "bogus"]))
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid value \"bogus\" for --engine"),
        "{stderr}"
    );
}

/// Writes `records` as a FASTA file wrapped at `width` columns.
fn fasta_file(name: &str, records: &[(String, String)], width: usize) -> PathBuf {
    let records: Vec<Record> = records
        .iter()
        .map(|(id, sequence)| Record::new(id.clone(), sequence.clone()))
        .collect();
    let mut text = Vec::new();
    write_records(&mut text, &records, width).unwrap();
    temp_file(name, &String::from_utf8(text).unwrap())
}

/// Random DNA of `len` bases with `protein`'s coding RNA planted at
/// `at`, when it fits.
fn planted_dna(len: usize, protein: &ProteinSeq, at: usize, rng: &mut StdRng) -> String {
    let mut bases = random_rna(len, rng).into_inner();
    let coding = coding_rna_for_paper_patterns(protein, rng);
    if at + coding.len() <= len {
        bases.splice(at..at + coding.len(), coding);
    }
    RnaSeq::from(bases).to_string().replace('U', "T")
}

#[test]
fn search_cli_batches_every_record_as_the_cycle_engine_searches_them() {
    // Windows of 9 to 60 bases against records of 7 bases (shorter than
    // every window), 40 (between the windows) and longer ones.
    let mut rng = StdRng::seed_from_u64(2020);
    let proteins: Vec<ProteinSeq> = [3, 12, 5, 20, 8, 4]
        .iter()
        .map(|&aa| random_protein(aa, &mut rng))
        .collect();
    let queries: Vec<(String, String)> = proteins
        .iter()
        .enumerate()
        .map(|(q, p)| (format!("q{q}"), p.to_string()))
        .collect();
    let records: Vec<(String, String)> = [3_000, 7, 40, 900, 5_000]
        .iter()
        .enumerate()
        .map(|(r, &len)| {
            let planted = &proteins[r % proteins.len()];
            (
                format!("rec{r}"),
                planted_dna(len, planted, len / 3, &mut rng),
            )
        })
        .collect();
    let query = fasta_file("qbatch.faa", &queries, 60);
    let reference = fasta_file("dbbatch.fna", &records, 70);
    let search = |extra: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
            .args(["--query", query.to_str().unwrap()])
            .args(["--reference", reference.to_str().unwrap()])
            .args(["--threshold", "0.5", "--quiet"])
            .args(extra)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{extra:?}: {stderr}");
        String::from_utf8(output.stdout).unwrap()
    };
    let cycle = search(&["--engine", "cycle"]);
    assert!(
        cycle.lines().any(|l| l.split('\t').nth(1) == Some("rec2")),
        "the record between the windows has rows:\n{cycle}"
    );
    for threads in ["1", "2", "3"] {
        assert_eq!(
            search(&["--threads", threads]),
            cycle,
            "--threads {threads}"
        );
    }
    fs::remove_file(query).ok();
    fs::remove_file(reference).ok();
}

#[test]
fn every_reference_path_reads_every_record_and_names_a_bad_one() {
    // MFWKMFWK planted in record 2 of 3: `fabp_serve --reference` must
    // serve it at its offset in the concatenated reference, as the index
    // built from the same file does.
    let mut rng = StdRng::seed_from_u64(2021);
    let protein: ProteinSeq = "MFWKMFWK".parse().unwrap();
    let records = vec![
        (
            "rec1".to_string(),
            planted_dna(3_000, &protein, 3_000, &mut rng),
        ),
        (
            "rec2".to_string(),
            planted_dna(2_000, &protein, 500, &mut rng),
        ),
        (
            "rec3".to_string(),
            planted_dna(1_000, &protein, 1_000, &mut rng),
        ),
    ];
    let query = temp_file("qrec.faa", ">q1\nMFWKMFWK\n");
    let reference = fasta_file("dbrec.fna", &records, 80);
    let index = temp_file("dbrec.fabpidx", "");
    let built = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args(["--reference", reference.to_str().unwrap()])
        .args(["--build-index", index.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(built.status.success(), "{built:?}");
    let serve_rows = |source: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_fabp_serve"))
            .args(["--queries", query.to_str().unwrap(), "--quiet"])
            .args(source)
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{output:?}");
        without_columns(&String::from_utf8(output.stdout).unwrap(), &["latency_us"])
    };
    let from_fasta = serve_rows(&["--reference", reference.to_str().unwrap()]);
    assert_eq!(
        from_fasta,
        serve_rows(&["--index", index.to_str().unwrap()])
    );
    let row: Vec<&str> = from_fasta[1].split('\t').collect();
    assert_eq!(
        (row[3], row[4], row[5]),
        ("ok", "1", "3500"),
        "{from_fasta:?}"
    );

    // A bad base in record 2 fails every reference path, naming it.
    let mut bad = records.clone();
    bad[1].1.replace_range(10..11, "N");
    let bad_reference = fasta_file("dbbad.fna", &bad, 80);
    let bad_path = bad_reference.to_str().unwrap();
    let runs: [(&str, Vec<&str>); 3] = [
        (
            env!("CARGO_BIN_EXE_fabp_serve"),
            vec![
                "--queries",
                query.to_str().unwrap(),
                "--reference",
                bad_path,
            ],
        ),
        (
            env!("CARGO_BIN_EXE_fabp_search"),
            vec!["--query", query.to_str().unwrap(), "--reference", bad_path],
        ),
        (
            env!("CARGO_BIN_EXE_fabp_search"),
            vec![
                "--reference",
                bad_path,
                "--build-index",
                index.to_str().unwrap(),
            ],
        ),
    ];
    for (bin, args) in runs {
        let output = Command::new(bin).args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("record 'rec2' (header at line ")
                && stderr.contains("invalid nucleotide symbol 'N'"),
            "{args:?}: {stderr}"
        );
    }
    for path in [query, reference, index, bad_reference] {
        fs::remove_file(path).ok();
    }
}

/// `fabp_serve`'s TSV `stdout`, row by row, without the `columns` its
/// header names.
fn without_columns(stdout: &str, columns: &[&str]) -> Vec<String> {
    let header: Vec<&str> = stdout
        .lines()
        .next()
        .expect("a header")
        .split('\t')
        .collect();
    assert!(columns.iter().all(|c| header.contains(c)), "{header:?}");
    stdout
        .lines()
        .map(|line| {
            let cells = line.split('\t').zip(&header);
            let kept: Vec<&str> = cells
                .filter(|(_, name)| !columns.contains(name))
                .map(|(cell, _)| cell)
                .collect();
            kept.join("\t")
        })
        .collect()
}

/// The 3-record repro, written to `name`: MFWKMFWK's coding RNA split
/// 12 + 12 across the rec1|rec2 end (500 bases each), and whole in rec3
/// at its base 300.
fn split_plant_records(name: &str) -> PathBuf {
    let coding = "ATGTTTTGGAAAATGTTCTGGAAG"; // MFWKMFWK
    let mut rng = StdRng::seed_from_u64(2022);
    let mut dna = |len: usize| RnaSeq::to_string(&random_rna(len, &mut rng)).replace('U', "T");
    let (mut rec1, mut rec2, mut rec3) = (dna(500), dna(500), dna(600));
    rec1.replace_range(488.., &coding[..12]);
    rec2.replace_range(..12, &coding[12..]);
    rec3.replace_range(300..324, coding);
    let records = [("rec1", rec1), ("rec2", rec2), ("rec3", rec3)]
        .map(|(id, sequence)| (id.to_string(), sequence));
    fasta_file(name, &records, 70)
}

#[test]
fn no_search_path_reports_a_window_that_spans_two_records() {
    let query = temp_file("qsplit.faa", ">q1\nMFWKMFWK\n");
    let reference = split_plant_records("dbsplit.fna");
    let index = temp_file("dbsplit.fabpidx", "");
    let run = |bin: &str, args: &[&str]| {
        let output = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{args:?}: {stderr}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        stdout
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let (query, reference, index) = (
        query.to_str().unwrap(),
        reference.to_str().unwrap(),
        index.to_str().unwrap(),
    );
    let search = env!("CARGO_BIN_EXE_fabp_search");
    run(search, &["--reference", reference, "--build-index", index]);

    let fasta = ["--query", query, "--reference", reference, "--quiet"];
    for engine in ["software", "cycle"] {
        assert_eq!(
            run(search, &[&fasta[..], &["--engine", engine]].concat()),
            ["q1\trec3\t300\t324\t300\t24\t24\t1"],
            "--engine {engine}"
        );
    }
    for prefilter in ["off", "seeded"] {
        let args = [
            "--query",
            query,
            "--index",
            index,
            "--prefilter",
            prefilter,
            "--quiet",
        ];
        assert_eq!(
            run(search, &args),
            [format!("q1\t{index}\t1300\t1324\t1300\t24\t24\t1")],
            "--prefilter {prefilter}"
        );
    }

    // fabp_serve rows: ticket, query, tenant, status, hits, best_pos, …
    let serve = env!("CARGO_BIN_EXE_fabp_serve");
    let fleet = ["--backend", "fleet", "--nodes", "2", "--replication", "1"];
    for source in [["--reference", reference], ["--index", index]] {
        for backend in [&["--backend", "software"][..], &fleet[..]] {
            let args = [&["--queries", query, "--quiet"][..], &source, backend].concat();
            let rows = run(serve, &args);
            let cells: Vec<&str> = rows[0].split('\t').collect();
            assert_eq!(
                (rows.len(), cells[3], cells[4], cells[5]),
                (1, "ok", "1", "1300"),
                "{args:?}"
            );
        }
    }
    let args = [
        "--queries",
        query,
        "--index",
        index,
        "--prefilter",
        "seeded",
        "--quiet",
    ];
    let rows = run(serve, &args);
    let cells: Vec<&str> = rows[0].split('\t').collect();
    assert_eq!((cells[4], cells[5]), ("1", "1300"), "{rows:?}");
    for path in [query, reference, index] {
        fs::remove_file(path).ok();
    }
}

#[test]
fn every_search_mode_writes_a_flight_trace_json_accepts() {
    let query = temp_file("qflight.faa", ">q1\nMFWKMFWK\n");
    let reference = split_plant_records("dbflight.fna");
    let index = temp_file("dbflight.fabpidx", "");
    let (query, reference, index) = (
        query.to_str().unwrap(),
        reference.to_str().unwrap(),
        index.to_str().unwrap(),
    );
    let search = || Command::new(env!("CARGO_BIN_EXE_fabp_search"));
    let built = search()
        .args(["--reference", reference, "--build-index", index])
        .output()
        .expect("binary runs");
    assert!(built.status.success(), "{built:?}");
    for source in [["--reference", reference], ["--index", index]] {
        let flight = temp_file("flight.json", "");
        fs::remove_file(&flight).unwrap();
        let output = search()
            .args(["--query", query, "--quiet"])
            .args(source)
            .args(["--trace-out", flight.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{source:?}: {output:?}");
        let parsed = Command::new("python3")
            .args(["-c", "import json, sys; json.load(open(sys.argv[1]))"])
            .arg(&flight)
            .output()
            .expect("python3 runs");
        assert!(parsed.status.success(), "{source:?}: {parsed:?}");
        fs::remove_file(flight).ok();
    }
    for path in [query, reference, index] {
        fs::remove_file(path).ok();
    }
}

/// The span names in a `--trace-out` file, which must parse as JSON.
fn trace_names(path: &std::path::Path) -> std::collections::BTreeSet<String> {
    let parsed = Command::new("python3")
        .args(["-c", "import json, sys; json.load(open(sys.argv[1]))"])
        .arg(path)
        .output()
        .expect("python3 runs");
    assert!(parsed.status.success(), "{}: {parsed:?}", path.display());
    fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("{\"name\": \""))
        .filter_map(|rest| rest.split('"').next().map(str::to_string))
        .collect()
}

#[test]
fn one_trace_file_holds_every_span_of_a_run() {
    let trace = temp_file("onetrace.json", "");
    let trace_out = ["--trace-out", trace.to_str().unwrap()];
    let assert_names = |what: &str, want: &[&str]| {
        let names = trace_names(&trace);
        let missing: Vec<_> = want.iter().filter(|n| !names.contains(**n)).collect();
        assert!(
            missing.is_empty(),
            "{what}: missing {missing:?} in {names:?}"
        );
    };

    // fabp_serve: each dispatch's tree and every request's spans.
    let output = serve(&[&["--repeat", "2", "--threads", "2"][..], &trace_out].concat());
    assert!(output.status.success(), "{output:?}");
    let dispatch = ["fabp_serve_batch", "dequeue", "execute"];
    let request = ["queue_wait", "query_cache", "align", "batch", "request"];
    assert_names("fabp_serve", &[&dispatch[..], &request].concat());

    // fabp_search: the measured spans, plus the modelled host stages on
    // the cycle engine.
    let query = temp_file("qonetrace.faa", ">q1\nMFWKMFWK\n>q2\nMFSRMFSR\n");
    let reference = split_plant_records("dbonetrace.fna");
    let fasta = [
        "--query",
        query.to_str().unwrap(),
        "--reference",
        reference.to_str().unwrap(),
        "--quiet",
    ];
    let measured = ["query", "encode_query", "search"];
    let modelled = [
        "end_to_end",
        "encode",
        "query_transfer",
        "kernel",
        "readback",
    ];
    for (engine, want) in [
        ("software", measured.to_vec()),
        ("cycle", [&measured[..], &modelled].concat()),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
            .args(fasta)
            .args(["--engine", engine])
            .args(trace_out)
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{output:?}");
        assert_names(engine, &want);
    }

    // The second trace file of the two-store model is gone.
    let flight = ["--flight-out", "f.json"];
    let search = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args(fasta)
        .args(flight)
        .output()
        .expect("binary runs");
    for output in [serve(&flight), search] {
        assert_eq!(output.status.code(), Some(2), "{output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("unknown argument \"--flight-out\""),
            "{stderr}"
        );
    }
    for path in [trace, query, reference] {
        fs::remove_file(path).ok();
    }
}

#[test]
fn build_index_mode_writes_the_output_tail() {
    let reference = split_plant_records("dbtail.fna");
    let index = temp_file("dbtail.fabpidx", "");
    let metrics = temp_file("tail.prom", "");
    fs::remove_file(&metrics).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
        .args(["--reference", reference.to_str().unwrap()])
        .args(["--build-index", index.to_str().unwrap()])
        .args(["--metrics-out", metrics.to_str().unwrap(), "--quiet"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    // `--quiet` silences the `# index:` line too.
    assert!(output.stderr.is_empty(), "{output:?}");
    assert!(metrics.exists(), "--metrics-out was not written");
    for path in [reference, index, metrics] {
        fs::remove_file(path).ok();
    }
}

#[test]
fn serve_cli_rejects_flags_of_another_backend() {
    // The fleet's flags (its query-length bound included) do nothing on
    // the software backend, the software workers do nothing on the
    // fleet, and only an index on the software backend has a prefilter:
    // each is a usage error that names the flag, not a silent no-op.
    let cases = [
        ("--nodes 9", "--nodes requires --backend fleet"),
        ("--replication 7", "--replication requires --backend fleet"),
        (
            "--inject-faults kill@1:50",
            "--inject-faults requires --backend fleet",
        ),
        (
            "--max-query-aa 8",
            "--max-query-aa requires --backend fleet",
        ),
        (
            "--backend fleet --threads 2",
            "--threads requires --backend software",
        ),
        (
            "--index db.fabpidx --queries q.faa --prefilter seeded --backend fleet",
            "--prefilter requires --index on --backend software",
        ),
        ("--prefilter off", "--prefilter requires --index"),
        ("--backend bogus", "invalid value \"bogus\" for --backend"),
    ];
    for (args, message) in cases {
        let output = serve(&args.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(message), "{args}: {stderr}");
    }
}

#[test]
fn a_query_wider_than_the_index_overlap_is_served() {
    // Shards of 4 000 bases with no overlap, and MFWKMFWK twice plus one
    // 200-aa protein (a 600-base window) planted across the second
    // shard's start: the seeded search and the seeded server print what
    // the exhaustive scan prints, every request served. The server's TSV
    // is compared without latency_us and without `cached`: the seeded
    // backend builds no per-query aligner to cache.
    let mut rng = StdRng::seed_from_u64(2024);
    let long = random_protein(200, &mut rng);
    let mut dna = planted_dna(16_000, &"MFWKMFWK".parse().unwrap(), 9_000, &mut rng);
    let coding = coding_rna_for_paper_patterns(&long, &mut rng);
    dna.replace_range(3_800..4_400, &coding.to_string().replace('U', "T"));
    let reference = fasta_file("dbwide.fna", &[("wide".to_string(), dna)], 80);
    let queries = format!(">m1\nMFWKMFWK\n>m2\nMFWKMFWK\n>long\n{long}\n");
    let query = temp_file("qwide.faa", &queries);
    let index = temp_file("dbwide.fabpidx", "");
    let (query, reference, index) = (
        query.to_str().unwrap(),
        reference.to_str().unwrap(),
        index.to_str().unwrap(),
    );
    let run = |bin: &str, args: &[&str]| {
        let output = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{args:?}: {stderr}");
        String::from_utf8(output.stdout).unwrap()
    };
    let search = env!("CARGO_BIN_EXE_fabp_search");
    let build = ["--reference", reference, "--build-index", index];
    let framing = ["--index-overlap", "0", "--index-shard-bases", "4000"];
    run(search, &[build, framing].concat());
    let searched = |prefilter| {
        let args = ["--query", query, "--index", index, "--quiet"];
        run(search, &[&args[..], &["--prefilter", prefilter]].concat())
    };
    let off = searched("off");
    assert!(off.contains(&format!("long\t{index}\t3800\t")), "{off}");
    let mfwk_rows = off.lines().filter(|l| l.starts_with('m')).count();
    assert_eq!(mfwk_rows, 2, "{off}");
    assert_eq!(searched("seeded"), off);

    let served = |prefilter| {
        let args = ["--queries", query, "--index", index, "--quiet"];
        let stdout = run(
            env!("CARGO_BIN_EXE_fabp_serve"),
            &[&args[..], &["--prefilter", prefilter]].concat(),
        );
        without_columns(&stdout, &["latency_us", "cached"])
    };
    let off = served("off");
    assert_eq!(off.len(), 4, "{off:?}");
    for row in &off[1..] {
        let cells: Vec<&str> = row.split('\t').collect();
        assert_eq!((cells[3], cells[4] != "0"), ("ok", true), "{off:?}");
    }
    assert_eq!(served("seeded"), off);
    for path in [query, reference, index] {
        fs::remove_file(path).ok();
    }
}

#[test]
fn build_index_rejects_framing_that_outgrows_the_reference() {
    // Empty shards, or shards that repeat more bases than they hold (a
    // file that grows with the square of the reference), are refused
    // with the builder's message.
    let reference = temp_file("dbframe.fna", ">r\nACGTACGTACGTACGTACGT\n");
    let index = temp_file("dbframe.fabpidx", "");
    let (reference, index) = (reference.to_str().unwrap(), index.to_str().unwrap());
    for framing in [
        ["--index-shard-bases", "0", "--index-overlap", "0"],
        ["--index-shard-bases", "1", "--index-overlap", "2"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_fabp_search"))
            .args(["--reference", reference, "--build-index", index])
            .args(framing)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{framing:?}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "index shard size {} must be at least 1 and at least the overlap {}",
                framing[1], framing[3]
            )),
            "{framing:?}: {stderr}"
        );
    }
    for path in [reference, index] {
        fs::remove_file(path).ok();
    }
}
