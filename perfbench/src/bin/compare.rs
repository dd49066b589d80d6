//! Compare benchmark result sets of a parent and a change.
//!
//! ```text
//! perfbench-compare [--benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR
//! ```
//!
//! Each directory holds one `<workload>.jsonl` file per workload, one
//! benchmark result line (the last stdout line of a run) per line, in run
//! order; line i of the parent and line i of the change form a pair. For
//! every workload × metric the helper prints each side's median and
//! quartiles, the fraction of pairs the change won and the verdict:
//! improved, unchanged, worse or unresolved. Exit code 1 when any
//! end-to-end metric is worse, 2 on bad input.

use minjie_perfbench::compare::compare;
use minjie_perfbench::stats::{valid_name, valid_unit, Better};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

struct Declared {
    better: Better,
    bound: Option<f64>,
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-compare: {msg}");
    std::process::exit(2);
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
}

/// Metric declarations from BENCHMARK.json, by name.
fn declarations(path: &Path) -> BTreeMap<String, Declared> {
    let v = serde_json::parse(&read(path)).unwrap_or_else(|e| fail(&format!("{e:?}")));
    let mut out = BTreeMap::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let Some(list) = v.get(section).and_then(Value::as_array) else {
            fail(&format!("{}: no `{section}` list", path.display()));
        };
        for m in list {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("");
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            if !valid_name(name) || !valid_unit(unit) {
                fail(&format!("invalid metric `{name}` / unit `{unit}`"));
            }
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse)
                .unwrap_or_else(|| fail(&format!("{name}: `better` must be lower or higher")));
            let bound = if bounded {
                Some(
                    m.get("bound")
                        .and_then(Value::as_f64)
                        .unwrap_or_else(|| fail(&format!("{name}: no bound"))),
                )
            } else {
                None
            };
            out.insert(name.to_string(), Declared { better, bound });
        }
    }
    out
}

/// Per workload, per metric: values in run order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Runs {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| fail(&format!("{}: {e}", dir.display())));
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    paths.sort();
    let mut out = Runs::new();
    for path in paths {
        let workload = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        if !valid_name(&workload) {
            fail(&format!("{}: invalid workload name", path.display()));
        }
        let per_metric = out.entry(workload).or_default();
        for line in read(&path).lines().filter(|l| !l.trim().is_empty()) {
            let v = serde_json::parse(line)
                .unwrap_or_else(|e| fail(&format!("{}: {e:?}", path.display())));
            let Some(metrics) = v.get("metrics").and_then(Value::as_object) else {
                fail(&format!("{}: a line has no metrics", path.display()));
            };
            for (name, m) in metrics {
                if !valid_name(name) {
                    fail(&format!("{}: invalid metric name `{name}`", path.display()));
                }
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| fail(&format!("{name}: no numeric value")));
                per_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    out
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    if let Some(i) = args.iter().position(|a| a == "--benchmark") {
        if i + 1 >= args.len() {
            fail("--benchmark needs a path");
        }
        benchmark = PathBuf::from(args.remove(i + 1));
        args.remove(i);
    }
    let [parent_dir, change_dir] = args.as_slice() else {
        fail("usage: perfbench-compare [--benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR");
    };
    let declared = declarations(&benchmark);
    let parent = load(Path::new(parent_dir));
    let change = load(Path::new(change_dir));

    println!(
        "{:<10} {:<34} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>5}  verdict",
        "workload",
        "metric",
        "parent_med",
        "parent_q1",
        "parent_q3",
        "change_med",
        "change_q1",
        "change_q3",
        "wins"
    );
    let mut worse = false;
    for (workload, metrics) in &parent {
        let Some(theirs) = change.get(workload) else {
            println!("{workload:<10} (no change runs)");
            continue;
        };
        for (name, p) in metrics {
            let Some(d) = declared.get(name) else {
                continue;
            };
            let Some(c) = theirs.get(name) else {
                println!("{workload:<10} {name:<34} (missing in change runs)");
                continue;
            };
            match compare(p, c, d.better, d.bound) {
                Some(r) => {
                    worse |=
                        d.bound.is_some() && r.verdict == minjie_perfbench::compare::Verdict::Worse;
                    println!(
                        "{workload:<10} {name:<34} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>5.2}  {}",
                        r.parent.median,
                        r.parent.q1,
                        r.parent.q3,
                        r.change.median,
                        r.change.q1,
                        r.change.q3,
                        r.wins,
                        r.verdict.name()
                    );
                }
                None => println!("{workload:<10} {name:<34} (fewer than two runs a side)"),
            }
        }
    }
    std::process::exit(i32::from(worse));
}
