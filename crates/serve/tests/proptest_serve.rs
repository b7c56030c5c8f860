//! Property tests for the serving layer.
//!
//! The headline property is **batching transparency**: whatever batch
//! sizes, tenant interleavings, cache capacities, pump cadences, source
//! or backend state the server runs — raw records or a multi-shard
//! index; the software scan, the seeded prefilter, or a fleet of any
//! size and replication with or without a dead node — the hits
//! delivered for each request are bit-identical to sequential
//! single-query `FabpAligner` runs over each record of the reference,
//! with the same threshold, the seeded prefilter's included.
//! Micro-batching and sharding are execution-schedule optimisations and
//! must never be semantic ones.
//!
//! Supporting properties pin the admission queue (conservation: every
//! admitted request is answered exactly once; fairness: round-robin
//! never lets one tenant monopolise a batch) and the LRU cache
//! (eviction order and resident-set behaviour under arbitrary access
//! traces).

use fabp_bio::alphabet::{AminoAcid, Nucleotide};
use fabp_bio::fasta::PackedRecords;
use fabp_bio::generate::coding_rna_for_paper_patterns;
use fabp_bio::seq::{PackedSeq, ProteinSeq, RnaSeq};
use fabp_core::aligner::{Engine, FabpAligner, Threshold};
use fabp_core::index::{IndexBuildOptions, PrefilterMode, ReferenceIndex};
use fabp_serve::{content_hash, BatchPolicy, FabpServer, LruCache, ServeBackend, ServeConfig};
use fabp_telemetry::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Longest query the transparency property's servers admit.
const MAX_QUERY_AA: usize = 64;

fn arb_protein(min: usize, max: usize) -> impl Strategy<Value = ProteinSeq> {
    prop::collection::vec(0usize..20, min..=max)
        .prop_map(|v| v.into_iter().map(|i| AminoAcid::STANDARD[i]).collect())
}

fn arb_rna(min: usize, max: usize) -> impl Strategy<Value = RnaSeq> {
    prop::collection::vec(0u8..4, min..=max)
        .prop_map(|v| v.into_iter().map(Nucleotide::from_code2).collect())
}

fn sequential_hits(
    protein: &ProteinSeq,
    reference: &RnaSeq,
    threshold: Threshold,
) -> Vec<fabp_core::hits::Hit> {
    FabpAligner::builder()
        .protein_query(protein)
        .threshold(threshold)
        .engine(Engine::Software { threads: 1 })
        .build()
        .expect("non-empty query builds")
        .search(reference)
        .hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// **Transparency invariant.** Served hits are bit-identical to
    /// sequential single-query runs over each record, in concatenated
    /// coordinates, under arbitrary query streams, tenant assignments,
    /// batch caps, cache sizes, sources, backends and record cuts: raw
    /// records or a multi-shard index built from them; the software
    /// engine at any thread count, or a fleet of 1–4 nodes at any
    /// replication, optionally with one node killed; over one record or
    /// several, with a query's coding RNA planted across each record end,
    /// and on an index-backed software server through the seeded
    /// prefilter.
    #[test]
    fn batching_is_transparent(
        reference in arb_rna(200, 1_500),
        cuts in prop::collection::vec(0usize..1_500, 0..=3),
        queries in prop::collection::vec(arb_protein(2, 12), 1..12),
        tenant_of in prop::collection::vec(0usize..4, 12),
        max_batch in 1usize..8,
        query_cache in 0usize..6,
        threads in 1usize..5,
        frac in 0.5f64..1.0,
        on_fleet in any::<bool>(),
        nodes in 1usize..=4,
        replication_pick in 0usize..4,
        kill in prop::option::of(0usize..4),
        seed in 0u64..1_000_000,
        from_index in any::<bool>(),
        shard_bases in 64usize..512,
        overlap_pick in 0usize..512,
        seeded in any::<bool>(),
    ) {
        let backend = if on_fleet {
            ServeBackend::Fleet {
                nodes,
                replication: 1 + replication_pick % nodes,
                // A one-node fleet has no survivor to fail over to.
                fault_spec: kill
                    .filter(|_| nodes > 1)
                    .map(|k| format!("kill@{}:1", k % nodes)),
            }
        } else {
            ServeBackend::Software { threads }
        };
        let threshold = Threshold::Fraction(frac);
        let registry = Registry::disabled();
        let seeded = seeded && from_index && !on_fleet;
        let config = ServeConfig {
            threshold,
            queue_capacity: 64,
            policy: BatchPolicy { max_batch, ..BatchPolicy::default() },
            backend: backend.clone(),
            query_cache,
            reference_cache: 2,
            default_deadline_us: None,
            max_query_aa: MAX_QUERY_AA,
            prefilter: if seeded { PrefilterMode::Seeded } else { PrefilterMode::Off },
        };
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(reference.len())).collect();
        bounds.push(0);
        bounds.push(reference.len());
        bounds.sort_unstable();
        let ranges: Vec<_> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
        // A window no record holds: a query's coding RNA split across
        // each record end it fits over.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bases = reference.into_inner();
        for (k, range) in ranges.iter().skip(1).enumerate() {
            let coding = coding_rna_for_paper_patterns(&queries[k % queries.len()], &mut rng);
            let at = range.start.checked_sub(coding.len() / 2);
            if let Some(at) = at.filter(|&at| at + coding.len() <= bases.len()) {
                bases.splice(at..at + coding.len(), coding.iter().copied());
            }
        }
        let reference = RnaSeq::from(bases);
        let records = PackedRecords {
            bases: PackedSeq::from_rna(&reference),
            ids: (0..ranges.len()).map(|r| format!("rec{r}")).collect(),
            ranges: ranges.clone(),
        };
        let mut server = if from_index {
            let options = IndexBuildOptions {
                overlap: overlap_pick % (shard_bases + 1),
                target_shard_bases: shard_bases,
            };
            let index = ReferenceIndex::build_from_packed(records, options).expect("index builds");
            FabpServer::with_index(Arc::new(index), config, &registry)
        } else {
            FabpServer::with_packed(records, config, &registry)
        }
        .expect("server builds");
        let mut tickets = Vec::new();
        for (i, protein) in queries.iter().enumerate() {
            let tenant = format!("tenant-{}", tenant_of[i % tenant_of.len()]);
            tickets.push(server.submit(&tenant, protein).expect("capacity fits"));
        }
        let responses = server.run_to_completion();
        prop_assert_eq!(responses.len(), queries.len(), "conservation");
        for (ticket, protein) in tickets.iter().zip(&queries) {
            let response = responses
                .iter()
                .find(|r| r.id == *ticket)
                .expect("every ticket answered");
            let hits = response.result.as_ref().expect("a survivor serves every shard");
            let expected: Vec<_> = ranges
                .iter()
                .flat_map(|range| {
                    let record = RnaSeq::from(reference.as_slice()[range.clone()].to_vec());
                    sequential_hits(protein, &record, threshold)
                        .into_iter()
                        .map(|hit| fabp_core::hits::Hit {
                            position: range.start + hit.position,
                            score: hit.score,
                        })
                })
                .collect();
            prop_assert_eq!(
                hits, &expected,
                "batching on {:?} (seeded: {}) over records {:?} (index: {}) changed hits",
                backend, seeded, ranges, from_index
            );
        }
    }

    /// Pump cadence does not matter either: interleaving submissions
    /// with pumps (instead of submit-all-then-drain) serves the same
    /// hit sets.
    #[test]
    fn pump_interleaving_is_transparent(
        reference in arb_rna(100, 600),
        queries in prop::collection::vec(arb_protein(2, 8), 1..8),
        pump_every in 1usize..4,
    ) {
        let registry = Registry::disabled();
        let config = ServeConfig {
            queue_capacity: 32,
            policy: BatchPolicy { max_batch: 2, ..BatchPolicy::default() },
            ..ServeConfig::default()
        };
        let mut server =
            FabpServer::new(reference.clone(), config, &registry).expect("server builds");
        let mut responses = Vec::new();
        let mut tickets = Vec::new();
        for (i, protein) in queries.iter().enumerate() {
            tickets.push(server.submit("t", protein).expect("capacity fits"));
            if i % pump_every == 0 {
                responses.extend(server.pump());
            }
        }
        responses.extend(server.run_to_completion());
        prop_assert_eq!(responses.len(), queries.len());
        for (ticket, protein) in tickets.iter().zip(&queries) {
            let response = responses.iter().find(|r| r.id == *ticket).expect("answered");
            let expected = sequential_hits(protein, &reference, Threshold::Fraction(1.0));
            prop_assert_eq!(response.result.as_ref().expect("ok"), &expected);
        }
    }

    /// Queue conservation with deadlines: every admitted request is
    /// answered exactly once — served or shed, never lost, never
    /// duplicated.
    #[test]
    fn every_request_is_answered_exactly_once(
        reference in arb_rna(100, 400),
        proteins in prop::collection::vec(arb_protein(2, 6), 1..16),
        deadlines in prop::collection::vec(prop::option::of(0u64..3_000), 16..=16),
        advance in 0u64..4_000,
    ) {
        let plan: Vec<(ProteinSeq, Option<u64>)> = proteins
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, deadlines[i]))
            .collect();
        let registry = Registry::disabled();
        let mut server = FabpServer::with_manual_clock(
            reference,
            ServeConfig { queue_capacity: 64, ..ServeConfig::default() },
            &registry,
        )
        .expect("server builds");
        let mut tickets = Vec::new();
        for (protein, deadline) in &plan {
            tickets.push(
                server
                    .submit_with_deadline("t", protein, *deadline)
                    .expect("capacity fits"),
            );
        }
        server.advance_clock_us(advance);
        let responses = server.run_to_completion();
        prop_assert_eq!(responses.len(), plan.len());
        let mut seen = responses.iter().map(|r| r.id).collect::<Vec<_>>();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), plan.len(), "no duplicate responses");
        // Shed requests are exactly those whose deadline < now.
        for (ticket, (_, deadline)) in tickets.iter().zip(&plan) {
            let response = responses.iter().find(|r| r.id == *ticket).expect("answered");
            let expired = deadline.is_some_and(|d| d < advance);
            prop_assert_eq!(
                response.result.is_err(),
                expired,
                "deadline {:?} vs advance {}",
                deadline,
                advance
            );
        }
    }

    /// LRU model check: against an arbitrary access trace, the cache
    /// agrees with a brute-force recency model — resident set, eviction
    /// victim and hit/miss counts all match.
    #[test]
    fn lru_matches_a_reference_model(
        capacity in 1usize..6,
        trace in prop::collection::vec(0u64..10, 1..64),
    ) {
        let mut cache: LruCache<u64> = LruCache::new("model", capacity, &Registry::disabled());
        // Model: vector of keys, most-recently-used last.
        let mut model: Vec<u64> = Vec::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for &key in &trace {
            if let Some(v) = cache.get(key) {
                prop_assert_eq!(v, key * 7, "cached value corrupted");
                prop_assert!(model.contains(&key), "cache hit the model missed");
                hits += 1;
                model.retain(|&k| k != key);
                model.push(key);
            } else {
                prop_assert!(!model.contains(&key), "cache missed a resident key");
                misses += 1;
                cache.insert(key, key * 7);
                model.push(key);
                if model.len() > capacity {
                    model.remove(0); // evict the least-recently used
                }
            }
        }
        let lru_first = cache.keys_lru_first();
        prop_assert_eq!(lru_first, model.clone(), "recency order diverged");
        let stats = cache.stats();
        prop_assert_eq!((stats.hits, stats.misses), (hits, misses));
    }

    /// The content hash is injective on the traces we feed it (no
    /// collisions across distinct short protein strings) and pure.
    #[test]
    fn content_hash_is_pure_and_collision_free_on_small_sets(
        proteins in prop::collection::vec(arb_protein(1, 10), 2..12),
    ) {
        let hashes: Vec<u64> = proteins
            .iter()
            .map(|p| content_hash(p.iter().map(|&aa| aa as u8)))
            .collect();
        for (i, p) in proteins.iter().enumerate() {
            prop_assert_eq!(content_hash(p.iter().map(|&aa| aa as u8)), hashes[i]);
            for (j, q) in proteins.iter().enumerate() {
                if p.as_slice() != q.as_slice() {
                    prop_assert_ne!(hashes[i], hashes[j], "collision {} vs {}", i, j);
                }
            }
        }
    }
}

// ---- directed (non-property) regression tests ---------------------------

/// Eviction order under a scripted access pattern: the serving layer's
/// worst case is a scan of distinct queries one larger than the cache.
#[test]
fn cache_eviction_order_under_cyclic_scan() {
    let registry = Registry::disabled();
    let mut cache: LruCache<u32> = LruCache::new("scan", 3, &registry);
    // Cyclic scan over capacity+1 keys: every access misses (the classic
    // LRU pathological case) — the cache must keep exactly the last 3.
    for round in 0..4u32 {
        for key in 0..4u64 {
            if cache.get(key).is_none() {
                cache.insert(key, round);
            }
        }
    }
    assert_eq!(cache.stats().hits, 0, "cyclic scan must never hit");
    assert_eq!(cache.stats().misses, 16);
    assert_eq!(cache.stats().evictions, 13);
    assert_eq!(cache.keys_lru_first(), vec![1, 2, 3]);
}

/// Deadline shedding is all-or-nothing per request and leaves live
/// requests untouched, even when expired requests dominate the queue.
#[test]
fn shedding_storm_spares_live_requests() {
    let registry = Registry::disabled();
    let reference: RnaSeq = "GGAUGUUUGGAUGUUUGGAUGUUUGG".parse().unwrap();
    let mut server = FabpServer::with_manual_clock(
        reference,
        ServeConfig {
            policy: BatchPolicy {
                max_batch: 2,
                ..BatchPolicy::default()
            },
            ..ServeConfig::default()
        },
        &registry,
    )
    .unwrap();
    let protein: ProteinSeq = "MF".parse().unwrap();
    let mut doomed = Vec::new();
    for _ in 0..9 {
        doomed.push(
            server
                .submit_with_deadline("burst", &protein, Some(10))
                .unwrap(),
        );
    }
    let live = server.submit_with_deadline("live", &protein, None).unwrap();
    server.advance_clock_us(1_000);
    let responses = server.run_to_completion();
    assert_eq!(responses.len(), 10);
    for id in doomed {
        let r = responses.iter().find(|r| r.id == id).unwrap();
        assert!(
            matches!(
                r.result,
                Err(fabp_serve::FabpError::DeadlineExceeded { .. })
            ),
            "{:?}",
            r.result
        );
    }
    let lucky = responses.iter().find(|r| r.id == live).unwrap();
    let hits = lucky.result.as_ref().unwrap();
    assert!(!hits.is_empty(), "live request must still be served");
    let stats = server.stats();
    assert_eq!((stats.shed, stats.served_ok), (9, 1));
}
