//! LegoBase-rs benchmark: end-to-end and per-layer metrics of two
//! workloads (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod data;
mod stats;
mod trace;
mod workloads;

use data::Inputs;
use stats::{geomean, median, peak_rss_mb, percentile, samples_needed};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{spec, Outcome, Plan, Spec, WORKLOADS};

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    prepare: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut prepare) =
        (None, 0, 10.0_f64, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--prepare" {
            prepare = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(format!("seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, prepare })
}

/// Removes every `LEGOBASE_*` override (CI legs set them to force
/// parallelism, the naive optimizer, plain columns, owned archives or no
/// feedback); the benchmark measures the defaults. Returns what it removed.
fn neutralize_env() -> Vec<String> {
    let found: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("LEGOBASE_")).collect();
    found
        .into_iter()
        .map(|(k, v)| {
            std::env::remove_var(&k);
            format!("{k}={v}")
        })
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &BTreeMap<String, (f64, &'static str)>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| {
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(k), json_str(unit))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Each query type's latencies, sorted.
fn latencies_by_query(out: &Outcome) -> BTreeMap<usize, Vec<f64>> {
    let mut by_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(q, ms) in &out.window.samples {
        by_query.entry(q).or_default().push(ms);
    }
    for v in by_query.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    by_query
}

/// The end-to-end metrics of an untraced run. Latency is taken per query
/// type at its fastest response: other tenants of a shared host slow whole
/// stretches of a run by up to 40%, which moves every whole-window
/// statistic (and even a type's 10th percentile) from run to run, while a
/// type's fastest response is set by the program alone. Whole-window
/// figures are reported as information.
fn end_to_end(out: &Outcome) -> BTreeMap<String, (f64, &'static str)> {
    let fastest: Vec<f64> = latencies_by_query(out).values().map(|v| v[0]).collect();
    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), (median(&out.setup_s), "s"));
    m.insert("query_min_geomean_ms".into(), (geomean(&fastest), "ms"));
    m.insert("pass_min_ms".into(), (fastest.iter().sum(), "ms"));
    m.insert("peak_rss_mb".into(), (peak_rss_mb(), "MB"));
    m
}

/// Whole-window figures of an untraced run, with their sample counts.
fn window_info(out: &Outcome, info: &mut BTreeMap<&str, String>) {
    let mut lat: Vec<f64> = out.window.samples.iter().map(|s| s.1).collect();
    lat.sort_by(f64::total_cmp);
    let fmt = |p| {
        percentile(&lat, p).map_or(format!("n/a ({} samples)", lat.len()), |v| format!("{v:.4}"))
    };
    info.insert("throughput_qps", format!("{:.3}", lat.len() as f64 / out.window_s));
    info.insert("latency_p50_ms", fmt(50.0));
    info.insert("latency_p90_ms", fmt(90.0));
    info.insert("latency_p99_ms", fmt(99.0));
    let by_query = latencies_by_query(out);
    let medians: Vec<f64> = by_query.values().map(|v| median(v)).collect();
    if !medians.is_empty() {
        info.insert("query_median_geomean_ms", format!("{:.4}", geomean(&medians)));
    }
    let per_type = by_query.values().map(Vec::len).min().unwrap_or(0);
    info.insert("samples_per_query_type_min", per_type.to_string());
}

fn run(args: &Args, neutralized: &[String]) -> Result<String, String> {
    let w = args.workload;
    let hash = data::source_hash().map_err(|e| format!("hashing sources: {e}"))?;
    let inputs = Inputs::locate(w.name, w.sf, args.seed, hash);
    let mut info: BTreeMap<&str, String> = BTreeMap::new();
    if !inputs.ready() {
        // A separate process: neither the generator nor the reference
        // engine may leave its memory in this process's peak RSS.
        let t = Instant::now();
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let status = Command::new(exe)
            .args(["--prepare", "--workload", w.name, "--seed", &args.seed.to_string()])
            .status()
            .map_err(|e| format!("spawning --prepare: {e}"))?;
        if !status.success() || !inputs.ready() {
            return Err(format!("--prepare failed: {status}"));
        }
        info.insert("prepare_s", format!("{:.2}", t.elapsed().as_secs_f64()));
    } else {
        info.insert("prepare_s", "0 (cached)".into());
    }
    let refs =
        data::read_refs(&inputs.refs).map_err(|e| format!("{}: {e}", inputs.refs.display()))?;
    let archive = legobase::tpch::archive::inspect(&inputs.archive).map_err(|e| e.to_string())?;

    let plan = Plan {
        spec: w,
        archive: &inputs.archive,
        refs: &refs,
        seed: args.seed,
        seconds: args.seconds,
        min_samples: samples_needed(90.0),
        trace: args.trace,
    };
    let mut out = workloads::run(&plan)?;
    if out.window.samples.is_empty() {
        // Nothing to measure: fail without a result line.
        return Err(format!("no correct response in the window: {:?}", out.window.errors));
    }

    let metrics = if args.trace {
        let mut m = std::mem::take(&mut out.layers);
        m.insert("tpch.archive_open_ms".into(), (median(&out.archive_open_ms), "ms"));
        m.insert(
            "storage.mapped_mb".into(),
            (archive.mappable_bytes() as f64 / (1024.0 * 1024.0), "MB"),
        );
        if let Some(tr) = &out.tracer {
            let name = format!("trace-{}-seed{}.json", w.name, args.seed);
            std::fs::create_dir_all(data::cache_dir()).map_err(|e| e.to_string())?;
            std::fs::write(data::cache_dir().join(&name), tr.to_json())
                .map_err(|e| format!("{name}: {e}"))?;
            info.insert("spans", format!("{} written to perfbench/cache/{name}", tr.spans.len()));
            let mut table = String::new();
            for (layer, (n, ns)) in tr.self_times() {
                let _ = write!(table, "{layer}: {n} spans, self {:.3} ms; ", ns as f64 / 1e6);
            }
            info.insert("span_self_times", table);
        }
        m
    } else {
        window_info(&out, &mut info);
        end_to_end(&out)
    };

    info.insert("workload", w.name.into());
    info.insert("scale_factor", w.sf.to_string());
    info.insert("seed", args.seed.to_string());
    info.insert("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()).to_string());
    info.insert("settings", format!("{:?}", workloads::settings()));
    info.insert("env_neutralized", format!("{neutralized:?}"));
    info.insert("window_s", format!("{:.3}", out.window_s));
    info.insert("window_samples", out.window.samples.len().to_string());
    info.insert("setup_reps_s", format!("{:?}", out.setup_s));
    info.insert("checked_outside_window", out.other.attempted.to_string());
    info.extend(out.info.iter().map(|(k, v)| (*k, v.clone())));
    let mut errors = out.window.errors.clone();
    errors.extend(out.other.errors.iter().cloned());
    if !errors.is_empty() {
        info.insert("errors", format!("{errors:?}"));
    }
    let info_json: Vec<String> =
        info.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();

    let attempted = out.window.attempted + out.other.attempted;
    let failed = out.window.failed + out.other.failed;
    Ok(format!(
        "info {{{}}}\n{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        info_json.join(", "),
        failed == 0,
        metrics_json(&metrics)
    ))
}

fn main() -> ExitCode {
    let neutralized = neutralize_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.prepare {
        let w = args.workload;
        let prepared = data::source_hash().and_then(|hash| {
            Inputs::locate(w.name, w.sf, args.seed, hash).prepare(w.sf, args.seed, w.queries)
        });
        return match prepared {
            Ok((gen_s, refs_s, archive_s)) => {
                eprintln!(
                    "perfbench: prepared {} seed {}: generate {gen_s:.2} s, references \
                     {refs_s:.2} s, archive {archive_s:.2} s (not part of any metric)",
                    w.name, args.seed
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: prepare failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args, &neutralized) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let a: Vec<String> =
            ["--workload", "olap-sf0.02-warm", "--seed", "7", "--seconds", "3", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let p = parse_args(&a).expect("valid");
        assert_eq!((p.seed, p.seconds, p.trace, p.prepare), (7, 3.0, true, false));
        for bad in [
            vec!["--workload", "nope"],
            vec!["--seed", "1"],
            vec!["--workload", "olap-sf0.02-warm", "--trace", "2"],
            vec!["--workload", "olap-sf0.02-warm", "--seconds", "0"],
        ] {
            let v: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&v).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = BTreeMap::new();
        m.insert("latency_p50_ms".to_string(), (1.25, "ms"));
        assert_eq!(metrics_json(&m), "{\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
