//! Traced run: spans around every call into a layer, the counting
//! allocator installed. Prints the per-layer metrics and writes the
//! spans to `benchmark/out/<workload>.trace.jsonl`. End-to-end metrics
//! are never taken from this binary.

use acir_benchmark::cli;
use acir_benchmark::report::PER_LAYER;
use acir_benchmark::spans::Tracer;

#[global_allocator]
static ALLOC: acir_mem::CountingAlloc = acir_mem::CountingAlloc;

fn main() {
    cli::main("traced", 1, PER_LAYER, |workload, cx| {
        let mut tracer = Tracer::new(true, 1 << 16);
        let report = (workload.2)(cx, &mut tracer);
        // Relative to the checkout root, where the benchmark is run from.
        let path = std::path::PathBuf::from(format!("benchmark/out/{}.trace.jsonl", workload.0));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("traced: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("{} spans -> {}", tracer.spans().len(), path.display());
        report
    });
}
