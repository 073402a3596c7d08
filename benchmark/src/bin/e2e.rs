//! End-to-end run: tracing off, system allocator. Prints every
//! end-to-end metric by name with unit, the operations attempted and
//! failed, and — last — the result line.

use acir_benchmark::cli;
use acir_benchmark::report::END_TO_END;

fn main() {
    cli::main("e2e", 0, END_TO_END, |workload, cx| (workload.1)(cx));
}
