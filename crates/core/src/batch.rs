//! Multi-query batch search over reference slices — the one scheduler
//! behind every software search.
//!
//! The paper evaluates 10 000 queries against one resident database
//! (§IV-A). On hardware, queries are searched one after another (the query
//! lives in flip-flops; reloading it is microseconds against a
//! multi-millisecond scan); in software we parallelise — and the unit of
//! parallelism matters.
//!
//! **Why per-query stealing failed (PR 4):** the previous scheduler stole
//! whole queries from a shared atomic index. That granularity has two
//! fatal shapes: with `queries < workers` the surplus workers idle (the
//! degenerate 1 query × N workers case runs fully serial), and even with
//! plenty of queries every worker re-streams the entire reference from
//! DRAM for each claim, so the memory system — not the core count — sets
//! the ceiling. `batch_parallel4_vs_serial` measured **0.98×**.
//!
//! **This scheduler steals reference slices of one joined pass.**
//! Every pass of every software query (one per query, plus one per
//! serine in extended-Ser mode) is a lane of one
//! [`BitParallelEngine::join`]: one fused pass scores the whole batch,
//! so the column fill is paid once per batch rather than once per query
//! (Nguyen & Lavenier's bank-to-bank sharing of one database pass). A
//! [`SlicePlan`](crate::slice_plan::SlicePlan) cuts the reference — a
//! multi-record database's concatenation, scanned once for every query —
//! into cache-friendly slices with exactly `window − 1` bases of trailing
//! overlap (the fleet's shard math), so per-slice scans partition
//! the alignment-position space and
//! [`merge_shard_hits`](crate::hits::merge_shard_hits) reassembles the
//! serial hit list bit-identically — even for one query on many workers.
//! Slices are sized by work: their floor in positions falls with the
//! lane count, since a slice's fixed costs (tile warm-up, overlap
//! re-read, hand-off) do not grow with the lanes it scores.
//! [`FabpAligner::search`] runs through the same path as a batch of
//! one. Each slice is a base range of the packed reference, which the
//! kernel scans in place.
//!
//! Scheduling is **work-stealing** (an atomic claim index over the
//! flattened item list, `claim_all`) rather than static chunking: a
//! worker that draws cheap slices immediately steals the next unclaimed
//! one. The index module's seeding and verification run as items of the
//! same claim loop, the only worker pool in this crate. Telemetry is
//! honest about utilisation: per-worker **busy-nanosecond histograms**
//! (`fabp_batch_worker_busy_ns`) replace the old claim-count gauges that
//! hid the 0.98× pathology, and the imbalance gauge reports the
//! busy-time spread in microseconds.

use crate::aligner::{merge_hits, Engine, FabpAligner, SearchOutcome, Threshold};
use crate::bitparallel::BitParallelEngine;
use crate::hits::{merge_shard_hits, Hit};
use crate::slice_plan::{SliceOptions, SlicePlan};
use fabp_bio::seq::{PackedSeq, ProteinSeq};
use fabp_resilience::{FabpError, FabpResult};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Searches every query against the reference, returning one outcome per
/// query (input order preserved).
///
/// `threads` parallelises across the reference slices of one joined
/// pass (see the module docs) — no query or slice is lost or duplicated
/// regardless of per-query cost skew, `threads > queries`, or slice
/// boundaries straddling match windows.
///
/// # Errors
///
/// Returns the first build failure encountered, mapped into the workspace
/// [`FabpError`] taxonomy (e.g. [`FabpError::EmptyQuery`]).
pub fn search_all(
    queries: &[ProteinSeq],
    reference: &PackedSeq,
    threshold: Threshold,
    threads: usize,
) -> FabpResult<Vec<SearchOutcome>> {
    // Build all aligners up front so errors surface before work starts.
    let aligners = queries
        .iter()
        .map(|q| {
            FabpAligner::builder()
                .protein_query(q)
                .threshold(threshold)
                .engine(Engine::Software { threads: 1 })
                .build()
                .map_err(FabpError::from)
        })
        .collect::<FabpResult<Vec<_>>>()?;
    Ok(search_prebuilt(&aligners, reference, threads, SliceOptions::default()).0)
}

/// How the scheduler actually ran one batch: the work items and the
/// per-worker busy time the critical-path analysis needs.
///
/// Busy time is what the old claim-count gauges could not show: with
/// per-query stealing, `1 query × 4 workers` reported a perfectly
/// balanced `1/0/0/0` claim split while three workers did nothing. The
/// busy-nanosecond vector makes that pathology (and its fix) measurable:
/// the batch's critical path is `max(per_worker_busy_ns)`, and speedup
/// over serial is `serial_ns / max(per_worker_busy_ns)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchRunStats {
    /// Workers that claimed items (≤ requested threads).
    pub workers: usize,
    /// Reference-slice work items scheduled.
    pub items: usize,
    /// Busy CPU nanoseconds per worker (thread CPU time spent inside
    /// claimed items — immune to preemption on oversubscribed hosts).
    pub per_worker_busy_ns: Vec<u64>,
}

impl BatchRunStats {
    /// The batch's critical path: the busiest worker's busy time.
    pub fn critical_path_ns(&self) -> u64 {
        self.per_worker_busy_ns.iter().copied().max().unwrap_or(0)
    }
}

/// CPU nanoseconds consumed by the calling thread
/// (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Busy time must be CPU time, not wall time: on a host with fewer
/// cores than workers, a worker preempted mid-item would be charged
/// wall-clock for cycles *another* worker consumed, every worker's
/// "busy" time would converge on the total wall time, and
/// [`BatchRunStats::critical_path_ns`] would degenerate to the serial
/// time. The thread CPU clock counts only cycles this thread actually
/// executed, so the critical path stays meaningful on any core count.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid writable timespec and the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    } else {
        0
    }
}

/// Wall-clock fallback where no per-thread CPU clock is exposed.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What [`claim_all`] returns.
pub(crate) struct Claimed<R> {
    /// One result per item, in item order.
    pub(crate) results: Vec<R>,
    /// CPU nanoseconds each worker spent inside claimed items.
    pub(crate) busy_ns: Vec<u64>,
}

/// The worker pool of `fabp-core`: up to `threads` workers claim `items`
/// one at a time from a shared atomic index and run each through `run`.
///
/// Claiming is work-stealing rather than static chunking: a worker that
/// draws cheap items immediately takes the next unclaimed one. One
/// worker runs the same items inline on the calling thread. Telemetry
/// handles are resolved once per call, before any worker starts, so the
/// claim loop pays only atomic ops and one CPU-clock read per item.
/// A worker's panic is forwarded to the caller with its payload.
pub(crate) fn claim_all<T, R, F>(items: &[T], threads: usize, run: F) -> Claimed<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    let telemetry = fabp_telemetry::Registry::global();
    let pending = telemetry.gauge(
        "fabp_batch_queue_depth",
        "Work items not yet claimed from the shared work-stealing queue",
    );
    let claimed_ctr = telemetry.counter(
        "fabp_batch_items_claimed_total",
        "Work items claimed from the batch queue",
    );
    let busy_hists: Vec<_> = (0..workers)
        .map(|w| {
            telemetry.histogram_with(
                "fabp_batch_worker_busy_ns",
                "CPU nanoseconds each batch worker spent inside claimed work items",
                fabp_telemetry::labels(&[("worker", &w.to_string())]),
            )
        })
        .collect();
    pending.set(items.len() as i64);

    let next = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut results: Vec<(usize, R)> = Vec::new();
        let mut busy_ns = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            pending.dec();
            claimed_ctr.inc();
            let started = thread_cpu_ns();
            results.push((i, run(&items[i])));
            let ns = thread_cpu_ns().saturating_sub(started);
            busy_ns += ns;
            busy_hists[worker].observe(ns);
        }
        (results, busy_ns)
    };
    let per_worker: Vec<(Vec<(usize, R)>, u64)> = if workers == 1 {
        vec![work(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let work = &work;
                    scope.spawn(move || work(w))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        })
    };

    // Honest utilisation telemetry: busy-time spread, not claim counts.
    let busy_ns: Vec<u64> = per_worker.iter().map(|(_, ns)| *ns).collect();
    let max_busy = busy_ns.iter().copied().max().unwrap_or(0);
    let min_busy = busy_ns.iter().copied().min().unwrap_or(0);
    telemetry
        .gauge(
            "fabp_batch_queue_imbalance",
            "Busiest minus idlest per-worker busy time in the last batch, microseconds",
        )
        .set(((max_busy - min_busy) / 1_000) as i64);

    // Every index was claimed exactly once, so sorting by it restores
    // item order.
    let mut tagged: Vec<(usize, R)> = per_worker.into_iter().flat_map(|(r, _)| r).collect();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    Claimed {
        results: tagged.into_iter().map(|(_, r)| r).collect(),
        busy_ns,
    }
}

/// Deduplicates a batch by `key`: returns the index of each distinct
/// item's first copy, in first-seen order, and for every item the
/// position of its copy in that list. A batch that repeats a query
/// computes it once and hands every copy the one result.
pub fn distinct<'a, T, K: Eq + Hash>(
    items: &'a [T],
    key: impl Fn(&'a T) -> K,
) -> (Vec<usize>, Vec<usize>) {
    let mut firsts = Vec::new();
    let mut seen: HashMap<K, usize> = HashMap::with_capacity(items.len());
    let slot_of = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            *seen.entry(key(item)).or_insert_with(|| {
                firsts.push(i);
                firsts.len() - 1
            })
        })
        .collect();
    (firsts, slot_of)
}

/// Kernels joined into one, each lane with its own threshold: one pass
/// over a base range scores every lane. The batch scan and the fleet's
/// scan phase join their lanes this way.
pub(crate) struct JoinedLanes {
    engine: BitParallelEngine,
    thresholds: Vec<u32>,
}

impl JoinedLanes {
    /// Joins one or more kernels, each with its threshold.
    pub(crate) fn new<'e>(
        lanes: impl IntoIterator<Item = (&'e BitParallelEngine, u32)>,
    ) -> JoinedLanes {
        let (engines, thresholds): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();
        JoinedLanes {
            engine: BitParallelEngine::join(&engines),
            thresholds,
        }
    }

    /// The longest lane's window.
    fn window(&self) -> usize {
        self.engine.query_len()
    }

    /// Scans `range` of the reference once, returning each lane's hits
    /// at positions relative to `range.start`.
    pub(crate) fn scan(&self, reference: &PackedSeq, range: Range<usize>) -> Vec<Vec<Hit>> {
        self.engine.search_lanes(reference, range, &self.thresholds)
    }
}

/// Every pass of a batch's software queries, scanned together, slice by
/// slice, by one joined engine.
struct LaneGroup {
    /// Per lane, the index of its query in the batch.
    queries: Vec<usize>,
    kernel: JoinedLanes,
    /// The shortest lane's window: a slice holding fewer bases has no
    /// position for any lane.
    shortest: usize,
    /// The reference's slices, planned against the longest window.
    plan: SlicePlan,
}

impl LaneGroup {
    /// Joins every pass of every software aligner, or `None` when the
    /// batch has none.
    fn new<A: Borrow<FabpAligner>>(
        aligners: &[A],
        reference_len: usize,
        threads: usize,
        options: SliceOptions,
    ) -> Option<LaneGroup> {
        let mut queries = Vec::new();
        let mut lanes = Vec::new();
        for (q, a) in aligners.iter().enumerate() {
            let a = a.borrow();
            for engine in a.fused_passes().unwrap_or_default() {
                queries.push(q);
                lanes.push((engine, a.threshold()));
            }
        }
        let shortest = lanes.iter().map(|(engine, _)| engine.query_len()).min()?;
        let kernel = JoinedLanes::new(lanes);
        // Size slices by work: a slice's fixed costs do not grow with
        // the lanes it scores.
        let options = SliceOptions {
            min_slice_positions: (options.min_slice_positions / queries.len()).max(1),
            ..options
        };
        Some(LaneGroup {
            plan: SlicePlan::build(reference_len, kernel.window(), threads, options),
            queries,
            kernel,
            shortest,
        })
    }

    /// Scans slice `s`, returning hits per lane at reference positions.
    fn scan(&self, reference: &PackedSeq, s: usize) -> Vec<Vec<Hit>> {
        let slice = self.plan.slices()[s];
        let mut per_lane = self.kernel.scan(reference, slice.start..slice.end);
        for hit in per_lane.iter_mut().flatten() {
            hit.position += slice.start;
        }
        per_lane
    }
}

/// The batch scan behind every software search, over aligners the
/// caller already built (and possibly cached — the serving layer pays a
/// repeated query's encode and table build once): every pass of every
/// software aligner becomes a lane of one joined engine, and its slices
/// of the reference are claimed by one [`claim_all`] queue's workers. A
/// cycle-accurate aligner runs its whole search on the calling thread
/// after the queue, so its cycle statistics cover one whole-reference
/// run. `options` sizes the slices (the proptest matrix draws it to
/// force slice boundaries through match windows); their floor in
/// positions is divided by the lane count.
///
/// A multi-record reference is scanned as its records' concatenation,
/// in one pass for every query; [`locate`](crate::hits::locate) then
/// drops the hits whose window crosses a record end and maps the rest to
/// their records.
///
/// Returns one outcome per aligner, in `aligners` order, and how the
/// scheduler ran. `A` is anything that borrows a [`FabpAligner`], so
/// `&[FabpAligner]` and `&[Arc<FabpAligner>]` both work.
pub fn search_prebuilt<A: Borrow<FabpAligner> + Sync>(
    aligners: &[A],
    reference: &PackedSeq,
    threads: usize,
    options: SliceOptions,
) -> (Vec<SearchOutcome>, BatchRunStats) {
    let threads = threads.max(1);
    let group = LaneGroup::new(aligners, reference.len(), threads, options);

    // The claim queue holds the group's slices. A slice too short for
    // the shortest lane has no position to score and schedules nothing;
    // one shorter than the longest lane's window still scores the lanes
    // that fit.
    let items: Vec<(&LaneGroup, usize)> = group
        .iter()
        .flat_map(|group| {
            let slices = group.plan.slices().iter().enumerate();
            slices
                .filter(|(_, slice)| slice.bases() >= group.shortest)
                .map(move |(s, _)| (group, s))
        })
        .collect();
    let claimed = claim_all(&items, threads, |&(group, slice)| {
        group.scan(reference, slice)
    });
    fabp_telemetry::Registry::global()
        .counter(
            "fabp_batch_slice_steals_total",
            "Reference-slice work items stolen by batch workers",
        )
        .add(items.len() as u64);

    // Reassemble per-query hits lane by lane. Across several slices the
    // shard merge restores position order and drops the exact boundary
    // duplicates shorter lanes re-report across slice overlaps; one
    // slice's lists already are in order. A query's passes then reduce
    // with the per-position best-score merge.
    let mut slices = claimed.results;
    let mut hits: Vec<Vec<Hit>> = vec![Vec::new(); aligners.len()];
    let lane_queries = group.as_ref().map_or(&[][..], |group| &group.queries);
    for (l, &query) in lane_queries.iter().enumerate() {
        let lane_hits = match slices.as_mut_slice() {
            [one] => std::mem::take(&mut one[l]),
            many => merge_shard_hits(many.iter_mut().map(|s| std::mem::take(&mut s[l]))),
        };
        let query_hits = &mut hits[query];
        *query_hits = if query_hits.is_empty() {
            lane_hits
        } else {
            merge_hits(std::mem::take(query_hits), lane_hits)
        };
    }
    let outcomes = hits
        .into_iter()
        .zip(aligners)
        .map(|(hits, a)| {
            let a = a.borrow();
            match a.fused_passes() {
                Some(_) => SearchOutcome {
                    hits,
                    threshold: a.threshold(),
                    query_len: a.query().len(),
                    stats: None,
                },
                None => a.search_packed(reference),
            }
        })
        .collect();

    let stats = BatchRunStats {
        workers: claimed.busy_ns.len(),
        items: items.len(),
        per_worker_busy_ns: claimed.busy_ns,
    };
    (outcomes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hits::split_by_record;
    use fabp_bio::generate::{random_protein, PlantedDatabase, PlantedDatabaseConfig};
    use fabp_bio::seq::RnaSeq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// [`search_prebuilt`] over `reference`, packed.
    fn search_whole<A: Borrow<FabpAligner> + Sync>(
        aligners: &[A],
        reference: &RnaSeq,
        threads: usize,
        options: SliceOptions,
    ) -> (Vec<SearchOutcome>, BatchRunStats) {
        search_prebuilt(aligners, &PackedSeq::from_rna(reference), threads, options)
    }

    /// Small slices so even test-sized references exercise real stealing.
    const TEST_SLICES: SliceOptions = SliceOptions {
        slices_per_worker: 2,
        min_slice_positions: 256,
    };

    #[test]
    fn batch_finds_every_planted_query() {
        let mut rng = StdRng::seed_from_u64(71);
        let db = PlantedDatabase::generate(
            &PlantedDatabaseConfig {
                reference_len: 30_000,
                num_queries: 8,
                query_len: 25,
                paper_codons_only: true,
                ..PlantedDatabaseConfig::default()
            },
            &mut rng,
        );
        let outcomes = search_all(
            &db.queries,
            &PackedSeq::from_rna(&db.reference),
            Threshold::Fraction(1.0),
            4,
        )
        .unwrap();
        assert_eq!(outcomes.len(), 8);
        for (region, outcome) in db.regions.iter().zip(&outcomes) {
            assert!(
                outcome.hits.iter().any(|h| h.position == region.position),
                "query {} missing its planted hit",
                region.query_index
            );
        }
        assert_eq!(outcomes.iter().filter(|o| !o.hits.is_empty()).count(), 8);
        assert!(outcomes.iter().map(|o| o.hits.len()).sum::<usize>() >= 8);
    }

    #[test]
    fn serial_and_parallel_batches_agree() {
        let mut rng = StdRng::seed_from_u64(72);
        let db = PlantedDatabase::generate(
            &PlantedDatabaseConfig {
                reference_len: 12_000,
                num_queries: 5,
                query_len: 20,
                ..PlantedDatabaseConfig::default()
            },
            &mut rng,
        );
        let serial = search_all(
            &db.queries,
            &PackedSeq::from_rna(&db.reference),
            Threshold::Fraction(0.85),
            1,
        )
        .unwrap();
        let parallel = search_all(
            &db.queries,
            &PackedSeq::from_rna(&db.reference),
            Threshold::Fraction(0.85),
            8,
        )
        .unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn one_query_many_workers_is_sliced_and_exact() {
        // The shape per-query stealing could not touch: one query, eight
        // workers. The sliced scheduler must fan the reference out across
        // all workers and still match serial bit-for-bit.
        let mut rng = StdRng::seed_from_u64(76);
        let queries = [random_protein(20, &mut rng)];
        let reference = fabp_bio::generate::random_rna(50_000, &mut rng);
        let aligners: Vec<FabpAligner> = queries
            .iter()
            .map(|q| {
                FabpAligner::builder()
                    .protein_query(q)
                    .threshold(Threshold::Fraction(0.7))
                    .build()
                    .unwrap()
            })
            .collect();
        let serial = search_whole(&aligners, &reference, 1, SliceOptions::default()).0;
        let (sliced, stats) = search_whole(&aligners, &reference, 8, TEST_SLICES);
        assert_eq!(serial[0].hits, sliced[0].hits);
        assert!(
            stats.items >= 8,
            "1 query × 8 workers must schedule ≥ 8 slices, got {}",
            stats.items
        );
        assert_eq!(stats.workers, 8);
        assert_eq!(stats.per_worker_busy_ns.len(), 8);
    }

    #[test]
    fn lane_groups_are_packed_and_exact() {
        // 9 queries → one group of nine lanes, whose slices are the whole
        // claim queue; every lane must match its serial outcome.
        let mut rng = StdRng::seed_from_u64(77);
        let queries: Vec<_> = (0..9).map(|i| random_protein(8 + i, &mut rng)).collect();
        let reference = fabp_bio::generate::random_rna(20_000, &mut rng);
        let aligners: Vec<FabpAligner> = queries
            .iter()
            .map(|q| {
                FabpAligner::builder()
                    .protein_query(q)
                    .threshold(Threshold::Fraction(0.6))
                    .build()
                    .unwrap()
            })
            .collect();
        let serial = search_whole(&aligners, &reference, 1, SliceOptions::default()).0;
        let (sliced, stats) = search_whole(&aligners, &reference, 4, TEST_SLICES);
        for (i, (a, b)) in serial.iter().zip(&sliced).enumerate() {
            assert_eq!(a.hits, b.hits, "query {i}");
        }
        // 4 workers × 2 slices each, not 9 × 8 (query, slice) pairs.
        assert_eq!(stats.items, 8);
    }

    #[test]
    fn extended_ser_passes_are_fused_lanes_and_exact() {
        use fabp_bio::backtranslate::BackTranslationMode;
        use fabp_encoding::encoder::QuerySet;
        let mut rng = StdRng::seed_from_u64(78);
        let protein: fabp_bio::seq::ProteinSeq = "MSSKWVF".parse().unwrap();
        let reference = fabp_bio::generate::random_rna(15_000, &mut rng);
        let aligner = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(0.6))
            .mode(BackTranslationMode::ExtendedSer)
            .build()
            .unwrap();
        assert_eq!(aligner.passes(), 3);
        let golden: Vec<Hit> = QuerySet::build(&protein, BackTranslationMode::ExtendedSer)
            .best_scores(reference.as_slice())
            .into_iter()
            .enumerate()
            .filter(|&(_, score)| score as u32 >= aligner.threshold())
            .map(|(position, score)| Hit {
                position,
                score: score as u32,
            })
            .collect();
        let (sliced, stats) = search_whole(&[&aligner], &reference, 4, TEST_SLICES);
        assert_eq!(sliced[0].hits, golden);
        assert_eq!(aligner.search(&reference).hits, golden);
        assert_eq!(stats.items, 8, "the three passes share each slice's pass");
    }

    #[test]
    fn mixed_backends_in_one_batch_are_exact() {
        // Software and cycle-accurate aligners in one batch: software
        // queries slice on the workers, the cycle query runs whole after
        // them (stats intact).
        let mut rng = StdRng::seed_from_u64(79);
        let p1 = random_protein(10, &mut rng);
        let p2 = random_protein(12, &mut rng);
        let reference = fabp_bio::generate::random_rna(6_000, &mut rng);
        let soft = FabpAligner::builder()
            .protein_query(&p1)
            .threshold(Threshold::Fraction(0.6))
            .build()
            .unwrap();
        let cycle = FabpAligner::builder()
            .protein_query(&p2)
            .threshold(Threshold::Fraction(0.6))
            .engine(Engine::CycleAccurate(Box::new(
                fabp_fpga::engine::EngineConfig::kintex7(0),
            )))
            .build()
            .unwrap();
        let serial_soft = soft.search(&reference);
        let serial_cycle = cycle.search(&reference);
        let (batch, stats) = search_whole(&[&soft, &cycle], &reference, 4, TEST_SLICES);
        assert_eq!(batch[0].hits, serial_soft.hits);
        assert_eq!(batch[1].hits, serial_cycle.hits);
        assert!(batch[1].stats.is_some(), "cycle stats must survive");
        assert_eq!(batch[1].stats, serial_cycle.stats);
        assert!(stats.items >= 1);
    }

    #[test]
    fn a_reference_between_the_windows_keeps_the_shorter_lanes_hits() {
        // 30 bases: room for GATT's 12-element window, none for the
        // 60-element one it shares a lane group with.
        let reference: RnaSeq = "ACCGAAACAUGGACCCUUUAUAUGAACUCU".parse().unwrap();
        let build = |protein: &str| {
            FabpAligner::builder()
                .protein_query(&protein.parse().unwrap())
                .threshold(Threshold::Fraction(0.5))
                .build()
                .unwrap()
        };
        let short = build("GATT");
        let long = build("NNQNNYFVEHYCKCRVTSSL");
        let alone = short.search(&reference);
        assert!(!alone.hits.is_empty());
        let (grouped, stats) = search_whole(&[&short, &long], &reference, 2, TEST_SLICES);
        assert_eq!(grouped[0].hits, alone.hits);
        assert!(grouped[1].hits.is_empty());
        assert_eq!(stats.items, 1);
        // Shorter than both windows: nothing to schedule.
        let (none, stats) = search_whole(
            &[&short, &long],
            &"ACGUACGUAC".parse().unwrap(),
            2,
            TEST_SLICES,
        );
        assert!(none.iter().all(|o| o.hits.is_empty()));
        assert_eq!(stats.items, 0);
    }

    #[test]
    fn records_are_searched_as_references_of_their_own_in_one_queue() {
        // Records of mixed lengths (one shorter than every window, one
        // between the windows), scanned as one concatenation under one
        // claim queue: each record's hits under the record rule are that
        // record searched alone, cycle-accurate runs included.
        let mut rng = StdRng::seed_from_u64(81);
        let proteins: Vec<_> = [3, 9, 5, 14, 7]
            .iter()
            .map(|&aa| random_protein(aa, &mut rng))
            .collect();
        let lengths = [4_000usize, 8, 30, 700, 1_500];
        let records: Vec<RnaSeq> = lengths
            .iter()
            .map(|&len| fabp_bio::generate::random_rna(len, &mut rng))
            .collect();
        let mut aligners: Vec<FabpAligner> = proteins
            .iter()
            .map(|p| {
                FabpAligner::builder()
                    .protein_query(p)
                    .threshold(Threshold::Fraction(0.5))
                    .build()
                    .unwrap()
            })
            .collect();
        aligners.push(
            FabpAligner::builder()
                .protein_query(&proteins[1])
                .threshold(Threshold::Fraction(0.5))
                .engine(Engine::CycleAccurate(Box::new(
                    fabp_fpga::engine::EngineConfig::kintex7(0),
                )))
                .build()
                .unwrap(),
        );
        let mut reference = PackedSeq::new();
        let mut ranges = Vec::new();
        for record in &records {
            let start = reference.len();
            reference.extend_from(&PackedSeq::from_rna(record));
            ranges.push(start..reference.len());
        }
        let (outcomes, stats) = search_prebuilt(&aligners, &reference, 3, TEST_SLICES);
        assert_eq!(outcomes.len(), aligners.len());
        for (q, (aligner, outcome)) in aligners.iter().zip(&outcomes).enumerate() {
            let mut per_record = vec![Vec::new(); records.len()];
            for (r, hits) in split_by_record(&outcome.hits, outcome.query_len, &ranges) {
                per_record[r] = hits;
            }
            for (r, (record, hits)) in records.iter().zip(&per_record).enumerate() {
                assert_eq!(hits, &aligner.search(record).hits, "record {r} query {q}");
            }
        }
        assert!(stats.workers <= 3);
        assert!(outcomes[5].stats.is_some(), "cycle stats survive");
    }

    #[test]
    fn more_threads_than_queries_loses_nothing() {
        // threads > queries: the surplus workers now eat reference slices
        // instead of idling, and every query appears exactly once, in
        // input order.
        let mut rng = StdRng::seed_from_u64(73);
        let db = PlantedDatabase::generate(
            &PlantedDatabaseConfig {
                reference_len: 8_000,
                num_queries: 3,
                query_len: 15,
                ..PlantedDatabaseConfig::default()
            },
            &mut rng,
        );
        let serial = search_all(
            &db.queries,
            &PackedSeq::from_rna(&db.reference),
            Threshold::Fraction(0.8),
            1,
        )
        .unwrap();
        let wide = search_all(
            &db.queries,
            &PackedSeq::from_rna(&db.reference),
            Threshold::Fraction(0.8),
            16,
        )
        .unwrap();
        assert_eq!(wide.len(), db.queries.len());
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn adversarial_cost_skew_is_exact() {
        // One query is ~20× more expensive than the rest (long query over
        // the same reference); under static chunking the worker that drew
        // it would also own a chunk of cheap queries. Slice stealing must
        // still return every outcome, input-ordered, identical to serial.
        let mut rng = StdRng::seed_from_u64(74);
        let mut queries = vec![random_protein(120, &mut rng)];
        for _ in 0..11 {
            queries.push(random_protein(6, &mut rng));
        }
        let reference = fabp_bio::generate::random_rna(40_000, &mut rng);
        let serial = search_all(
            &queries,
            &PackedSeq::from_rna(&reference),
            Threshold::Fraction(0.6),
            1,
        )
        .unwrap();
        let parallel = search_all(
            &queries,
            &PackedSeq::from_rna(&reference),
            Threshold::Fraction(0.6),
            4,
        )
        .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.hits, b.hits, "query {i}");
        }
    }

    #[test]
    fn honest_telemetry_is_exported_under_slice_stealing() {
        let mut rng = StdRng::seed_from_u64(75);
        let db = PlantedDatabase::generate(
            &PlantedDatabaseConfig {
                reference_len: 6_000,
                num_queries: 6,
                query_len: 12,
                ..PlantedDatabaseConfig::default()
            },
            &mut rng,
        );
        search_all(
            &db.queries,
            &PackedSeq::from_rna(&db.reference),
            Threshold::Fraction(0.9),
            3,
        )
        .unwrap();
        let snapshot = fabp_telemetry::Registry::global().snapshot();
        let text = snapshot.to_prometheus();
        assert!(text.contains("fabp_batch_queue_depth"));
        assert!(text.contains("fabp_batch_queue_imbalance"));
        assert!(!text.contains("fabp_batch_lane_occupancy_pct"));
        assert!(text.contains("fabp_batch_items_claimed_total"));
        assert!(text.contains("fabp_batch_slice_steals_total"));
        // The satellite fix: busy-time histograms, not claim-count gauges.
        assert!(text.contains("fabp_batch_worker_busy_ns"));
        assert!(!text.contains("fabp_batch_worker_queue_depth"));
    }

    #[test]
    fn empty_batch_is_ok() {
        let reference: RnaSeq = "ACGU".parse().unwrap();
        let outcomes = search_all(
            &[],
            &PackedSeq::from_rna(&reference),
            Threshold::Absolute(0),
            4,
        )
        .unwrap();
        assert!(outcomes.is_empty());
    }

    #[test]
    fn empty_reference_yields_empty_outcomes() {
        let mut rng = StdRng::seed_from_u64(80);
        let queries = vec![random_protein(5, &mut rng), random_protein(7, &mut rng)];
        let reference = RnaSeq::new();
        let outcomes = search_all(
            &queries,
            &PackedSeq::from_rna(&reference),
            Threshold::Absolute(1),
            4,
        )
        .unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.hits.is_empty()));
    }

    #[test]
    fn empty_query_in_batch_errors() {
        let reference: RnaSeq = "ACGU".parse().unwrap();
        let queries = vec![ProteinSeq::new()];
        assert!(search_all(
            &queries,
            &PackedSeq::from_rna(&reference),
            Threshold::Absolute(0),
            1
        )
        .is_err());
    }
}
