//! Demonstrates the kernel-trace + device-model machinery: run PANDORA once
//! on this machine, then project the very same kernel sequence onto the
//! paper's three chips (64-core EPYC 7A53, MI250X GCD, A100).
//!
//! ```sh
//! PANDORA_SCALE=200000 cargo run --release --example device_projection
//! ```

use pandora::core::pandora as pandora_algo;
use pandora::data::seed_spreader::{Density, SeedSpreader};
use pandora::exec::device::DeviceModel;
use pandora::exec::ExecCtx;
use pandora::mst::{core_distances2, emst_with_core2, KdTree};

fn main() {
    let n: usize = std::env::var("PANDORA_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(80_000);
    let points = SeedSpreader::new(n, 3, Density::Variable).generate(5);
    println!(
        "tracing PANDORA on {} points (VisualVar-style, 3-D)…",
        points.len()
    );

    let (ctx, tracer) = ExecCtx::threads().with_tracing();
    let tree = KdTree::build(&ctx, &points);
    let core2 = core_distances2(&ctx, &points, &tree, 2);
    let edges = emst_with_core2(&ctx, &points, &core2);
    tracer.reset(); // keep only the dendrogram kernels

    let t = std::time::Instant::now();
    let (_dendro, stats) = pandora_algo::dendrogram_with_stats(&ctx, points.len(), &edges);
    let host_s = t.elapsed().as_secs_f64();
    let trace = tracer.snapshot();

    println!(
        "\n{} kernel launches recorded across {} contraction levels",
        trace.len(),
        stats.n_levels
    );
    println!("host wall clock: {:.1} ms (this machine)", host_s * 1e3);

    println!(
        "\n{:<22} {:>10} {:>10} {:>10} {:>10}",
        "device (modeled)", "total", "sort", "contract", "expand"
    );
    for device in [
        DeviceModel::epyc_7a53_64c(),
        DeviceModel::mi250x_gcd(),
        DeviceModel::a100(),
    ] {
        let sim = device.simulate(&trace);
        println!(
            "{:<22} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms",
            sim.device,
            sim.total_s * 1e3,
            sim.phase_s("sort") * 1e3,
            sim.phase_s("contraction") * 1e3,
            sim.phase_s("expansion") * 1e3
        );
    }
    println!(
        "\nthe kernel sequence is identical in every row — only the per-kernel \
         cost model changes (see docs/ARCHITECTURE.md, \"The substrate\")."
    );
}
