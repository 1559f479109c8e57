//! Reproduces **Figure 3** of the paper: the dendrogram of a 40-point
//! sample from a 3-D Gaussian under the HDBSCAN\* mutual reachability
//! distance (minPts = 2) is already highly skewed — nothing like the
//! balanced tree a naive divide-and-conquer would hope for.
//!
//! ```sh
//! cargo run --release --example skewed_dendrogram
//! ```

use pandora::core::pandora as pandora_algo;
use pandora::core::{Dendrogram, SortedMst, INVALID};
use pandora::data::synthetic::normal;
use pandora::exec::ExecCtx;
use pandora::mst::emst;

/// Renders the edge-node tree sideways (root left), one node per line.
fn render(d: &Dendrogram, mst: &SortedMst) {
    let children = d.edge_children();
    // Vertex children per edge.
    let mut vchildren: Vec<Vec<u32>> = vec![Vec::new(); d.n_edges()];
    for (v, &p) in d.vertex_parent.iter().enumerate() {
        vchildren[p as usize].push(v as u32);
    }
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    while let Some((e, depth)) = stack.pop() {
        println!(
            "{:indent$}├─ edge {e:>2}  d={:.3}  ({},{})",
            "",
            d.edge_weight[e as usize],
            mst.src[e as usize],
            mst.dst[e as usize],
            indent = depth * 2
        );
        for &v in &vchildren[e as usize] {
            println!("{:indent$}│   · point {v}", "", indent = depth * 2);
        }
        for c in children[e as usize] {
            if c != INVALID {
                stack.push((c, depth + 1));
            }
        }
    }
}

fn main() {
    let ctx = ExecCtx::threads();
    // 40 points from a 3-D standard normal, exactly as in Fig. 3.
    let points = normal(40, 3, 3);

    let edges = emst(&ctx, &points, 2).edges;
    let mst = SortedMst::from_edges(&ctx, points.len(), &edges);
    let (dendro, stats) = pandora_algo::dendrogram_from_sorted(&ctx, &mst);

    render(&dendro, &mst);

    let n = dendro.n_edges();
    let ideal = (n as f64).log2();
    println!(
        "\nheight = {} over {} edge nodes; ideal (balanced) height = {:.1}; \
         skew = {:.1}",
        dendro.height(),
        n,
        ideal,
        dendro.skewness()
    );
    println!(
        "contraction levels used by PANDORA: {} (bound: ⌈log2(n+1)⌉ = {})",
        stats.n_levels,
        (n + 1).next_power_of_two().trailing_zeros()
    );
    println!(
        "\npaper's point: even a tiny Gaussian sample yields a strongly \
         skewed dendrogram — the common case PANDORA is built for."
    );
}
