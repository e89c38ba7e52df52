//! Regenerates **Table 3**: per-scheme mapping costs — table size,
//! translation time, sparing, and layout period.
//!
//! Translation time is measured directly: nanoseconds per
//! logical-address-to-physical-address translation, averaged over a
//! large deterministic sweep (`stackbench`'s `core.map_ns.*` layer
//! metrics report the same quantity on every benchmark run).
//!
//! ```text
//! cargo run --release -p pddl-bench --bin table3_costs
//! ```

use std::time::Instant;

use pddl_bench::{DISKS, WIDTH};
use pddl_core::layout::Layout;
use pddl_core::Datum;
use pddl_core::{ParityDeclustering, Pddl, PrimeLayout, PseudoRandom, Raid5};

fn measure_translation(layout: &dyn Layout) -> f64 {
    let span = layout.data_units_per_period().min(100_000);
    // Warm up.
    let mut sink = 0usize;
    for u in 0..span {
        sink ^= layout.locate_phys(u).disk;
    }
    let start = Instant::now();
    let rounds = 20u64;
    for r in 0..rounds {
        for u in 0..span {
            sink ^= layout.locate_phys(u.wrapping_add(r)).disk;
        }
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    elapsed / (rounds * span) as f64
}

fn main() {
    println!("# Table 3: comparison of mapping implementations");
    println!("scheme\ttable_bytes\ttranslation_ns\tsparing\tperiod_rows");
    let layouts: Vec<(&str, Box<dyn Layout>)> = vec![
        (
            "Parity Declustering",
            Box::new(ParityDeclustering::new(DISKS, WIDTH).unwrap()),
        ),
        (
            "PseudoRandom",
            Box::new(PseudoRandom::new(DISKS, WIDTH, 1).unwrap()),
        ),
        ("DATUM", Box::new(Datum::new(DISKS, WIDTH).unwrap())),
        ("PRIME", Box::new(PrimeLayout::new(DISKS, WIDTH).unwrap())),
        ("PDDL", Box::new(Pddl::new(DISKS, WIDTH).unwrap())),
        ("RAID 5", Box::new(Raid5::new(DISKS).unwrap())),
    ];
    for (name, layout) in layouts {
        let period = if name == "PseudoRandom" {
            "n/a (expected values only)".to_string()
        } else {
            layout.period_rows().to_string()
        };
        println!(
            "{name}\t{}\t{:.1}\t{}\t{}",
            layout.mapping_table_bytes(),
            measure_translation(layout.as_ref()),
            if layout.has_sparing() { "yes" } else { "no" },
            period
        );
    }
}
