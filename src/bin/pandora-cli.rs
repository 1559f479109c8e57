//! `pandora-cli` — command-line interface to the pandora stack.
//!
//! ```text
//! pandora-cli hdbscan  <points.csv|.bin> [--min-pts N] [--min-cluster-size N] [--out labels.csv]
//! pandora-cli cut      <points.csv|.bin> --epsilon E [--out labels.csv]
//! pandora-cli generate <dataset-name> <n> <out.bin|.csv> [--seed S]
//! pandora-cli info     <points.csv|.bin>
//! pandora-cli datasets
//! ```
//!
//! Points files: headerless CSV (one point per row) or the crate's binary
//! format (`pandora::data::io`).

#![expect(
    clippy::print_stderr,
    reason = "a command-line tool: usage and errors go to stderr"
)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pandora::data::{all_datasets, by_name, io as pio};
use pandora::hdbscan::{dbscan_star, Hdbscan, HdbscanParams};
use pandora::mst::PointSet;

fn load_points(path: &Path) -> Result<PointSet, String> {
    let loaded = if path.extension().is_some_and(|e| e == "csv") {
        pio::load_csv(path)
    } else {
        pio::load(path)
    };
    loaded.map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write_labels(labels: &[i32], out: Option<PathBuf>) -> Result<(), String> {
    use std::io::Write;
    match out {
        Some(path) => {
            let mut f = std::io::BufWriter::new(
                std::fs::File::create(&path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            );
            for l in labels {
                writeln!(f, "{l}").map_err(|e| e.to_string())?;
            }
            println!("wrote {} labels to {}", labels.len(), path.display());
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            for l in labels {
                writeln!(lock, "{l}").map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

/// Minimal flag parser: `--key value` pairs after positional args.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { positional, flags })
    }

    fn flag<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }
}

fn cmd_hdbscan(args: &Args) -> Result<(), String> {
    let input = args
        .positional
        .first()
        .ok_or("usage: pandora-cli hdbscan <points> [--min-pts N] [--min-cluster-size N]")?;
    let points = load_points(Path::new(input))?;
    let params = HdbscanParams {
        min_pts: args.flag("min-pts")?.unwrap_or(2),
        min_cluster_size: args.flag("min-cluster-size")?.unwrap_or(5),
        allow_single_cluster: args.flag::<bool>("allow-single-cluster")?.unwrap_or(false),
    };
    eprintln!(
        "HDBSCAN* on {} points ({}D), minPts={}, minClusterSize={}",
        points.len(),
        points.dim(),
        params.min_pts,
        params.min_cluster_size
    );
    let result = Hdbscan::new(params).run(&points);
    eprintln!(
        "{} clusters, {} noise | emst {:.1}ms, dendrogram {:.1}ms (skew {:.0}), extract {:.1}ms",
        result.n_clusters(),
        result.n_noise(),
        result.timings.emst_s() * 1e3,
        result.timings.dendrogram_s * 1e3,
        result.dendrogram.skewness(),
        result.timings.extract_s * 1e3,
    );
    write_labels(&result.labels, args.flag::<PathBuf>("out")?)
}

fn cmd_cut(args: &Args) -> Result<(), String> {
    let input = args
        .positional
        .first()
        .ok_or("usage: pandora-cli cut <points> --epsilon E")?;
    let epsilon: f32 = args
        .flag("epsilon")?
        .ok_or("cut requires --epsilon <distance>")?;
    let points = load_points(Path::new(input))?;
    let result = Hdbscan::new(HdbscanParams::default()).run(&points);
    let labels = dbscan_star(&result, epsilon);
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let noise = labels.iter().filter(|&&l| l == -1).count();
    eprintln!("DBSCAN* at ε={epsilon}: {k} clusters, {noise} noise");
    write_labels(&labels, args.flag::<PathBuf>("out")?)
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let [name, n, out] = args.positional.as_slice() else {
        return Err("usage: pandora-cli generate <dataset> <n> <out.bin|.csv> [--seed S]".into());
    };
    let spec = by_name(name).ok_or_else(|| {
        format!("unknown dataset {name}; run `pandora-cli datasets` for the list")
    })?;
    let n: usize = n.parse().map_err(|_| format!("invalid n: {n}"))?;
    let seed: u64 = args.flag("seed")?.unwrap_or(42);
    let points = spec.generate(n, seed);
    let out = Path::new(out);
    let write_result = if out.extension().is_some_and(|e| e == "csv") {
        pio::save_csv(&points, out)
    } else {
        pio::save(&points, out)
    };
    write_result.map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "generated {} points of {} ({}D) → {}",
        points.len(),
        spec.name,
        points.dim(),
        out.display()
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let input = args
        .positional
        .first()
        .ok_or("usage: pandora-cli info <points>")?;
    let points = load_points(Path::new(input))?;
    println!("points: {}", points.len());
    println!("dim:    {}", points.dim());
    for d in 0..points.dim() {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for i in 0..points.len() {
            let c = points.point(i)[d];
            lo = lo.min(c);
            hi = hi.max(c);
        }
        println!("dim {d}: [{lo}, {hi}]");
    }
    Ok(())
}

fn cmd_datasets() -> Result<(), String> {
    println!(
        "{:<16} {:>3} {:>12} {:>10}  description",
        "name", "dim", "paper n", "paper Imb"
    );
    for spec in all_datasets() {
        println!(
            "{:<16} {:>3} {:>12} {:>10.0e}  {}",
            spec.name, spec.dim, spec.paper_npts, spec.paper_imb, spec.desc
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        eprintln!(
            "pandora-cli — single-linkage / HDBSCAN* clustering (PANDORA reproduction)\n\
             commands: hdbscan, cut, generate, info, datasets"
        );
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "hdbscan" => cmd_hdbscan(&args),
        "cut" => cmd_cut(&args),
        "generate" => cmd_generate(&args),
        "info" => cmd_info(&args),
        "datasets" => cmd_datasets(),
        other => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
