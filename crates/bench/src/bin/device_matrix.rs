//! Cross-device placement matrix: enumerate the exact energy/RAM frontier
//! of every BEEBS kernel on every entry of the device database, print the
//! per-(kernel, device) optimal placements and the merged device-dominant
//! Pareto sets, and write the numbers to `BENCH_device.json` so the
//! cross-device trajectory can be tracked across commits.
//!
//! Exits nonzero when an acceptance check fails (a kernel not fitting a
//! device, a truncated staircase, or the wait-state part picking the same
//! optimal block set as the zero-wait reference part on every kernel);
//! pass `--no-fail` to report without failing (used by CI, where the
//! numbers are informational).  Positional arguments restrict the run to
//! the named kernels (used to regenerate the `device_matrix` golden).

use flashram_bench::{device_matrix, device_matrix_document, device_matrix_text, write_report};
use flashram_minicc::OptLevel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let no_fail = args.iter().any(|a| a == "--no-fail");
    let names: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let (kernels, failures) = device_matrix(&names, OptLevel::O2, 1.5);

    print!("{}", device_matrix_text(&kernels));

    let diverging: Vec<&str> = kernels
        .iter()
        .filter(|k| k.f401_diverges())
        .map(|k| k.benchmark)
        .collect();
    println!(
        "kernels where stm32f401 wait states shift the optimal block set \
         vs stm32f100: {}/{} ({})",
        diverging.len(),
        kernels.len(),
        diverging.join(", ")
    );

    let doc = device_matrix_document(&kernels, &failures);
    write_report("BENCH_device.json", &doc, &failures, no_fail);
}
