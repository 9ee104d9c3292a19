//! Prints baseline-vs-current deltas for the cache hot-path benchmarks.
//!
//!     bench_diff [--check] [--max-regress PCT] [BASELINE] [CURRENT]
//!
//! Defaults to `BENCH_baseline.json` vs `BENCH_pr2.json` in the working
//! directory. Records are joined on (suite, bench, policy, blocks); the
//! protocol field is informational (e.g. baseline records are the naive
//! scan, current records the indexed or dense path).
//!
//! Without `--check`, exits non-zero only when a file is missing or
//! unparseable — never on timing, so informational diffs stay robust to
//! noisy machines. With `--check`, any joined metric whose current value is
//! more than `PCT` percent above the baseline (default 10) is printed as a
//! regression and the exit code is non-zero — the CI bench-regression guard
//! (`ci.sh` compares the two newest `BENCH_pr*.json` this way; set
//! `REFDIST_SKIP_BENCH_GUARD=1` to opt out).

use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
struct Record {
    suite: String,
    bench: String,
    policy: String,
    blocks: u64,
    protocol: String,
    metric: String,
    value: f64,
}

/// Pull `"key":"value"` out of a flat one-line JSON object.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Pull `"key":number` out of a flat one-line JSON object.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Vec::new();
    for line in text.lines() {
        if !line.contains("\"suite\"") {
            continue;
        }
        let (metric, value) = if let Some(v) = num_field(line, "ns_per_evict") {
            ("ns_per_evict".to_string(), v)
        } else if let Some(v) = num_field(line, "ms_total") {
            ("ms_total".to_string(), v)
        } else if let Some(v) = num_field(line, "peak_slots") {
            // Slot-arena high-water mark of a streaming serve cell — a
            // space metric, gated like a timing: growth is a regression.
            ("peak_slots".to_string(), v)
        } else if let Some(v) = num_field(line, "us_per_sub") {
            ("us_per_sub".to_string(), v)
        } else if let Some(v) = num_field(line, "count") {
            // Deterministic behaviour counts (retries, sheds, SLO hits from
            // a fixed-seed stream) — machine-independent, so any drift is a
            // behaviour change, not noise.
            ("count".to_string(), v)
        } else {
            return Err(format!("{path}: record without a metric: {line}"));
        };
        records.push(Record {
            suite: str_field(line, "suite").ok_or_else(|| format!("{path}: no suite: {line}"))?,
            bench: str_field(line, "bench").ok_or_else(|| format!("{path}: no bench: {line}"))?,
            policy: str_field(line, "policy")
                .ok_or_else(|| format!("{path}: no policy: {line}"))?,
            blocks: num_field(line, "blocks").unwrap_or(0.0) as u64,
            protocol: str_field(line, "protocol").unwrap_or_default(),
            metric,
            value,
        });
    }
    if records.is_empty() {
        return Err(format!("{path}: no records found"));
    }
    Ok(records)
}

fn main() -> ExitCode {
    let mut check = false;
    let mut max_regress = 10.0f64;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--max-regress" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("bench_diff: --max-regress needs a numeric percentage");
                    return ExitCode::FAILURE;
                };
                max_regress = v;
            }
            _ => positional.push(a),
        }
    }
    let mut positional = positional.into_iter();
    let base_path = positional
        .next()
        .unwrap_or_else(|| "BENCH_baseline.json".into());
    let cur_path = positional.next().unwrap_or_else(|| "BENCH_pr2.json".into());
    let (base, cur) = match (parse(&base_path), parse(&cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for r in [b, c] {
                if let Err(e) = r {
                    eprintln!("bench_diff: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<7} {:<12} {:<10} {:>8} {:>14} {:>14} {:>9}",
        "suite", "bench", "policy", "blocks", base_path, cur_path, "speedup"
    );
    let mut unmatched = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    for b in &base {
        // Protocol is part of the identity: admission records the cold and
        // interned paths under the same bench name, distinguished only here.
        let Some(c) = cur.iter().find(|c| {
            (&c.suite, &c.bench, &c.policy, c.blocks, &c.protocol)
                == (&b.suite, &b.bench, &b.policy, b.blocks, &b.protocol)
        }) else {
            unmatched += 1;
            continue;
        };
        let unit = match b.metric.as_str() {
            "ns_per_evict" => "ns",
            "peak_slots" => "sl",
            "us_per_sub" => "us",
            "count" => "n",
            _ => "ms",
        };
        println!(
            "{:<7} {:<12} {:<10} {:>8} {:>11.1} {:>2} {:>11.1} {:>2} {:>8.2}x",
            b.suite,
            b.bench,
            b.policy,
            b.blocks,
            b.value,
            unit,
            c.value,
            unit,
            b.value / c.value
        );
        if check && b.value > 0.0 && c.value > b.value * (1.0 + max_regress / 100.0) {
            regressions.push(format!(
                "{}/{}/{}/blocks={}: {:.1} {unit} -> {:.1} {unit} (+{:.1}%, limit {max_regress}%)",
                b.suite,
                b.bench,
                b.policy,
                b.blocks,
                b.value,
                c.value,
                (c.value / b.value - 1.0) * 100.0,
            ));
        }
    }
    if unmatched > 0 {
        println!("({unmatched} baseline records had no counterpart in {cur_path})");
    }
    if check && !regressions.is_empty() {
        eprintln!(
            "bench_diff: {} metric(s) regressed more than {max_regress}% vs {base_path}:",
            regressions.len()
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
