//! Builds a custom DSWP-style kernel from scratch — a pointer-chasing
//! traversal split into an address-generation thread and a value-update
//! thread (the paper's Figure 2 example) — and evaluates it end to end.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use hfs::core::kernel::{KStep, Kernel, KernelPair};
use hfs::core::{DesignPoint, Machine, MachineConfig};
use hfs::isa::QueueId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let q = QueueId(0);

    // Thread A: `while (ptr = ptr->next) produce(ptr);`
    // The linked list lives in a 2 MB arena, so traversal misses caches.
    let mut producer = Kernel::default();
    let list = producer.add_region("linked_list", 2 * 1024 * 1024);
    producer.steps = vec![
        KStep::LoadRandom { region: list }, // ptr = ptr->next
        KStep::AluChain(2),                 // null check + bookkeeping
        KStep::Produce(q),                  // produce(ptr)
        KStep::Branch,
    ];

    // Thread B: `while (ptr = consume()) ptr->val += 1;`
    let mut consumer = Kernel::default();
    let vals = consumer.add_region("values", 2 * 1024 * 1024);
    consumer.steps = vec![
        KStep::Consume(q),
        KStep::AluChain(2), // ptr->val + 1
        KStep::StoreRandom { region: vals },
        KStep::Branch,
    ];

    let pair = KernelPair {
        name: "figure2".into(),
        producer,
        consumer,
        iterations: 1_000,
    };
    pair.validate()?;

    println!("Figure 2 pipeline: pointer-chase producer -> update consumer\n");
    let mut baseline = None;
    for design in [
        DesignPoint::heavywt(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::existing(),
    ] {
        let cfg = MachineConfig::itanium2_cmp(design);
        let result = Machine::new_pipeline(&cfg, &pair)?.run(500_000_000)?;
        let base = *baseline.get_or_insert(result.cycles);
        println!(
            "{:<16} {:>9} cycles  (x{:.2} vs HEAVYWT)  forwards={}",
            result.design,
            result.cycles,
            result.cycles as f64 / base as f64,
            result.mem.forwards,
        );
    }

    // And the single-threaded fusion for reference (Figure 9's baseline).
    let cfg = MachineConfig::itanium2_single();
    let single = Machine::new_single(&cfg, &pair)?.run(500_000_000)?;
    println!("\nsingle-threaded  {:>9} cycles", single.cycles);
    Ok(())
}
