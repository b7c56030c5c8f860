//! Chaos under live traffic: rolling node kills against a serving
//! fleet.
//!
//! The fleet's unit and server tests inject faults at build or into a
//! *single dispatch*; these tests kill and revive whole nodes **while a
//! live multi-tenant query stream is being served**, across many pump
//! rounds, and hold the fleet to the two promises that matter:
//!
//! 1. **Bit-identity** — every successfully served response equals the
//!    sequential single-query oracle, whatever nodes died mid-stream
//!    (replication + health-driven routing + failover must be
//!    semantically invisible).
//! 2. **Availability** — with R = 2 and one node down at a time, no
//!    request may fail: measured availability is 1.0, far above the
//!    0.99 floor the roadmap commits to.
//!
//! A third test pins determinism: two identical servers fed the same
//! submissions, kills and manual-clock advances produce identical
//! responses and identical hedge/failover accounting.

use fabp_bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
use fabp_bio::seq::{ProteinSeq, RnaSeq};
use fabp_core::aligner::{Engine, FabpAligner, Threshold};
use fabp_core::hits::Hit;
use fabp_serve::{FabpError, FabpServer, Response, ServeBackend, ServeConfig};
use fabp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 4;
const REPLICATION: usize = 2;

fn workload(seed: u64, queries: usize) -> (RnaSeq, Vec<ProteinSeq>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let proteins: Vec<ProteinSeq> = (0..queries).map(|_| random_protein(8, &mut rng)).collect();
    let mut bases = random_rna(8_000, &mut rng).into_inner();
    for (i, protein) in proteins.iter().enumerate() {
        let coding = coding_rna_for_paper_patterns(protein, &mut rng);
        let at = 300 + i * (7_000 / queries.max(1));
        bases.splice(at..at + coding.len(), coding.iter().copied());
    }
    (RnaSeq::from(bases), proteins)
}

fn oracle(protein: &ProteinSeq, reference: &RnaSeq) -> Vec<Hit> {
    FabpAligner::builder()
        .protein_query(protein)
        .threshold(Threshold::Fraction(1.0))
        .engine(Engine::Software { threads: 1 })
        .build()
        .expect("oracle builds")
        .search(reference)
        .hits
}

fn fleet_config() -> ServeConfig {
    ServeConfig {
        backend: ServeBackend::Fleet {
            nodes: NODES,
            replication: REPLICATION,
            fault_spec: None,
        },
        max_query_aa: 16,
        queue_capacity: 256,
        ..ServeConfig::default()
    }
}

/// Rolling single-node kills under a live stream: each fleet node dies
/// in turn (and is revived before the next kill), queries keep flowing
/// the whole time, and every answer stays bit-identical to the oracle
/// with 100 % availability.
#[test]
fn rolling_node_kills_under_live_traffic_stay_bit_identical() {
    let (reference, proteins) = workload(0xC4A05, 6);
    let registry = Registry::new();
    let mut server = FabpServer::with_manual_clock(reference.clone(), fleet_config(), &registry)
        .expect("fleet server builds");

    let mut responses: Vec<Response> = Vec::new();
    let mut submitted = 0usize;
    // Phase 0 is healthy; then each node is killed in turn, serves a
    // round of traffic degraded, and is revived before the next kill.
    for round in 0..=NODES {
        if round > 0 {
            server.revive_node(round - 1);
        }
        if round < NODES {
            server.kill_node(round);
            // The killed node drains immediately; earlier victims may
            // still be in probation, so "routable" can be lower still.
            assert!(server.routable_nodes().expect("fleet backend") < NODES);
        }
        for (i, protein) in proteins.iter().enumerate() {
            let tenant = format!("tenant-{}", i % 3);
            server.submit(&tenant, protein).expect("queue has room");
            submitted += 1;
        }
        server.advance_clock_us(1_000);
        responses.extend(server.run_to_completion());
    }

    assert_eq!(responses.len(), submitted, "every request is answered");
    let ok = responses.iter().filter(|r| r.result.is_ok()).count();
    let availability = ok as f64 / responses.len() as f64;
    assert!(
        availability >= 0.99,
        "availability {availability} under rolling kills (R = {REPLICATION})"
    );
    for response in &responses {
        let protein = &proteins[(response.id as usize) % proteins.len()];
        let expected = oracle(protein, &reference);
        assert_eq!(
            response.result.as_ref().expect("R=2 serves one dead node"),
            &expected,
            "request {} diverged from the oracle mid-chaos",
            response.id
        );
        assert!(!expected.is_empty(), "planted query must hit");
    }
    // Dead replicas forced shard failovers, and the counters saw them.
    let stats = server.stats();
    assert!(
        stats.failovers > 0,
        "kills must exercise failover: {stats:?}"
    );
    let text = registry.snapshot().to_prometheus();
    assert!(text.contains("fabp_fleet_failovers_total"), "{text}");
    assert!(
        text.contains("fabp_fleet_node_state_changes_total"),
        "{text}"
    );
}

/// Killing both replicas of a shard mid-stream still serves every
/// request (off-placement failover), and full fleet death surfaces as
/// typed dispatch errors, not wrong answers.
#[test]
fn double_kill_fails_over_and_total_death_is_typed() {
    let (reference, proteins) = workload(0xC4A06, 4);
    let registry = Registry::new();
    let mut server = FabpServer::with_manual_clock(reference.clone(), fleet_config(), &registry)
        .expect("fleet server builds");

    // Shard 0 lives on nodes (0, 1); kill both replicas.
    server.kill_node(0);
    server.kill_node(1);
    for protein in &proteins {
        server.submit("a", protein).expect("queue has room");
    }
    let responses = server.run_to_completion();
    for response in &responses {
        let protein = &proteins[(response.id as usize) % proteins.len()];
        assert_eq!(
            response.result.as_ref().expect("failover serves the shard"),
            &oracle(protein, &reference)
        );
    }
    assert!(server.stats().failovers > 0);

    // Now the whole fleet: with zero surviving capacity the brownout
    // admission control sheds everything queued with a typed error
    // before dispatch is even attempted.
    server.kill_node(2);
    server.kill_node(3);
    assert_eq!(server.routable_nodes(), Some(0));
    server
        .submit("a", &proteins[0])
        .expect("admission still open");
    let dead = server.run_to_completion();
    assert!(!dead.is_empty());
    assert!(
        dead.iter().all(|r| matches!(
            r.result,
            Err(FabpError::Brownout {
                routable_nodes: 0,
                ..
            }) | Err(FabpError::NodeDown { .. })
        )),
        "{dead:?}"
    );
}

/// The same chaos sequence on two identical manual-clock servers yields
/// identical responses and identical hedge/cancel/failover accounting —
/// the whole fleet path (placement, phi-accrual routing, hedging) is
/// deterministic under the manual clock.
#[test]
fn chaos_sequence_is_deterministic_across_identical_servers() {
    let (reference, proteins) = workload(0xC4A07, 5);
    let run = || {
        let registry = Registry::new();
        let mut server =
            FabpServer::with_manual_clock(reference.clone(), fleet_config(), &registry)
                .expect("fleet server builds");
        let mut log: Vec<(u64, String, Option<Vec<Hit>>, u64)> = Vec::new();
        for round in 0..3usize {
            server.kill_node(round);
            for (i, protein) in proteins.iter().enumerate() {
                let tenant = format!("t{}", i % 2);
                server.submit(&tenant, protein).expect("queue has room");
            }
            server.advance_clock_us(500);
            for response in server.run_to_completion() {
                log.push((
                    response.id,
                    response.tenant.clone(),
                    response.result.ok(),
                    response.latency_us,
                ));
            }
            server.revive_node(round);
        }
        let stats = server.stats();
        (log, stats.hedges, stats.cancels, stats.failovers)
    };
    assert_eq!(run(), run());
}
