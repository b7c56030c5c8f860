//! Data-center scale-out: sharding a database across FPGA boards.
//!
//! The paper's introduction motivates FabP with cloud FPGA deployments.
//! This example shards a database across 1–8 modelled Kintex-7 boards
//! (an `FpgaFleet` holding one replica of each shard), shows query
//! latency/throughput/energy scaling, and then runs a real sharded
//! search (with boundary overlap) to demonstrate hit-exactness,
//! cross-checking hits against the genes (ORFs) present in the reference.
//!
//! Run with: `cargo run --release --example datacenter_cluster`

use fabp::bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
use fabp::bio::orf::find_orfs;
use fabp::bio::seq::{PackedSeq, RnaSeq};
use fabp::core::fleet::{search_batch, FpgaFleet};
use fabp::encoding::encoder::EncodedQuery;
use fabp::fpga::engine::EngineConfig;
use fabp::resilience::{FailureDetector, FaultSchedule};
use fabp_telemetry::{FlightRecorder, Registry, TraceContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(0xDC);

    // --- Scaling model: 1 Gbase database, 50-aa query ------------------
    let protein = random_protein(50, &mut rng);
    let query = EncodedQuery::from_protein(&protein);
    let config = EngineConfig::kintex7((query.len() as u32 * 9).div_ceil(10));

    println!("1 Gbase database, 50-aa query, Kintex-7 boards:\n");
    println!(
        "{:>7} {:>14} {:>16} {:>14}",
        "boards", "latency", "queries/sec", "J per query"
    );
    for nodes in [1usize, 2, 4, 8] {
        let fleet = FpgaFleet::homogeneous(&query, &config, nodes, 1, 1_000_000_000, 0)?;
        let t = fleet.timing();
        println!(
            "{:>7} {:>11.2} ms {:>16.1} {:>14.3}",
            nodes,
            t.latency_seconds * 1e3,
            t.queries_per_second,
            t.joules_per_query
        );
    }

    // --- Real sharded search with gene cross-check ---------------------
    println!("\nSharded search demo (4 boards, 40 kbase synthetic genome):");
    let gene_protein = {
        let mut p: fabp::bio::seq::ProteinSeq = "M".parse()?;
        p.extend(random_protein(29, &mut rng).iter().copied());
        p
    };
    let mut coding = coding_rna_for_paper_patterns(&gene_protein, &mut rng);
    coding.extend("UAA".parse::<RnaSeq>()?.iter().copied());

    let mut bases = random_rna(40_000, &mut rng).into_inner();
    for &at in &[9_999usize, 25_002] {
        bases.splice(at..at + coding.len(), coding.iter().copied());
    }
    let reference = RnaSeq::from(bases);

    // Each board reads its shard plus qlen − 1 bases of the next, so a
    // gene straddling a boundary is scored whole.
    let gene_query = EncodedQuery::from_protein(&gene_protein);
    let qlen = gene_query.len();
    let packed = PackedSeq::from_rna(&reference);
    let fleet = FpgaFleet::homogeneous(
        &gene_query,
        &EngineConfig::kintex7(qlen as u32),
        4,
        1,
        packed.len(),
        qlen - 1,
    )?;
    let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
    // One request: a batch of one, scanned on one worker.
    let hits = search_batch(
        &[(&fleet, TraceContext::none())],
        &packed,
        &FaultSchedule::new(),
        &mut detector,
        0,
        &Registry::disabled(),
        &FlightRecorder::disabled(),
        0.0,
        1,
    )
    .remove(0)?
    .hits;
    println!(
        "  hits: {:?}",
        hits.iter().map(|h| h.position).collect::<Vec<_>>()
    );

    // ORFs of at least 25 residues in the genome.
    let orfs = find_orfs(&reference, 25);
    println!("  ORFs ≥ 25 aa in the genome: {}", orfs.len());
    for hit in &hits {
        let inside = orfs
            .iter()
            .find(|o| o.start <= hit.position && hit.position + qlen <= o.end);
        match inside {
            Some(orf) => println!(
                "  hit @{} lies in the ORF [{}, {}) frame {} — translated: {}…",
                hit.position,
                orf.start,
                orf.end,
                orf.frame,
                &orf.translate(&reference).to_string()[..12.min(orf.protein_len())]
            ),
            None => println!("  hit @{} is outside every long ORF", hit.position),
        }
    }

    Ok(())
}
