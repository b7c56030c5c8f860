//! Database search scenario: the workload the paper's introduction
//! motivates — characterising an unknown protein by searching a nucleotide
//! database for regions that could encode it.
//!
//! Builds a synthetic database with planted (mutated) homologies, searches
//! it with FabP and with the TBLASTN-like CPU baseline, and compares what
//! each finds.
//!
//! Run with: `cargo run --release --example protein_search`

use fabp::baselines::tblastn::{tblastn_search, TblastnConfig};
use fabp::bio::generate::{PlantedDatabase, PlantedDatabaseConfig};
use fabp::bio::mutate::SubstitutionModel;
use fabp::bio::seq::PackedSeq;
use fabp::core::aligner::{FabpAligner, Threshold};
use fabp::core::batch;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2021);

    // A 200 kbase "database" with eight planted homologies, each carrying
    // 3% nucleotide substitutions relative to the query's coding sequence.
    let config = PlantedDatabaseConfig {
        reference_len: 200_000,
        num_queries: 8,
        query_len: 60,
        substitutions: SubstitutionModel::new(0.03),
        ..PlantedDatabaseConfig::default()
    };
    let db = PlantedDatabase::generate(&config, &mut rng);
    println!(
        "database: {} bases, {} planted homologies of {} aa (3% substitutions)",
        db.reference.len(),
        db.queries.len(),
        config.query_len
    );

    // --- FabP batch search at a 90% threshold -------------------------
    let packed = PackedSeq::from_rna(&db.reference);
    let outcomes = batch::search_all(&db.queries, &packed, Threshold::Fraction(0.9), 4)?;
    println!("\nFabP (90% threshold):");
    let mut fabp_found = 0;
    for (region, outcome) in db.regions.iter().zip(&outcomes) {
        let found = outcome
            .regions()
            .iter()
            .any(|r| r.start.abs_diff(region.position) < outcome.query_len);
        fabp_found += usize::from(found);
        let best = fabp::core::hits::best_hit(&outcome.hits);
        println!(
            "  query {:>2}: planted @{:>6} ({} subs) -> {}",
            region.query_index,
            region.position,
            region.mutations.substitutions,
            match best {
                Some(h) => format!(
                    "best hit @{} score {}/{}",
                    h.position, h.score, outcome.query_len
                ),
                None => "no hit".to_string(),
            }
        );
    }
    println!("  recall: {fabp_found}/{}", db.regions.len());

    // --- TBLASTN baseline ----------------------------------------------
    println!("\nTBLASTN-like baseline:");
    let mut blast_found = 0;
    for (i, query) in db.queries.iter().enumerate() {
        let result = tblastn_search(query, &db.reference, &TblastnConfig::default());
        let planted = &db.regions[i];
        let found = result
            .hsps
            .iter()
            .any(|h| h.nucleotide_pos.abs_diff(planted.position) < 3 * config.query_len);
        blast_found += usize::from(found);
        let best = result.hsps.iter().map(|h| h.score).max();
        println!(
            "  query {:>2}: {} HSPs, best score {:?}, planted region {}",
            i,
            result.hsps.len(),
            best,
            if found { "found" } else { "MISSED" }
        );
    }
    println!("  recall: {blast_found}/{}", db.queries.len());

    // --- Single deep-dive: region detail -------------------------------
    let aligner = FabpAligner::builder()
        .protein_query(&db.queries[0])
        .threshold(Threshold::Fraction(0.85))
        .build()?;
    let outcome = aligner.search(&db.reference);
    println!("\nquery 0 at a relaxed 85% threshold:");
    for region in outcome.regions() {
        println!(
            "  region [{}, {}): {} hits, best score {}/{} at {}",
            region.start,
            region.end,
            region.hit_count,
            region.best.score,
            outcome.query_len,
            region.best.position
        );
    }

    Ok(())
}
