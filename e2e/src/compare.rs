//! A/B comparison of two builds of this benchmark: alternating pairs of
//! runs, per-metric medians and quartiles, and a verdict per metric.
//!
//! The rules: a *gain* needs the head to win at least nine tenths of the
//! pairs (ties count for neither) and its median to differ from the
//! base's by more than the base's own quartile spread. A metric is
//! *unresolved* when either side's quartile spread, as a share of its
//! median, exceeds the metric's bound — unless every head run beats
//! every base run. Otherwise a head median worse than the base's by more
//! than the bound is a *regression*, and anything else is *within
//! bound*.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use maopt_obs::json::Json;

use crate::metrics::{bounds, Better, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::Workload;

/// What a comparison concluded about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The head is better, by the nine-in-ten and spread rules.
    Gain,
    /// The head's median is no worse than the bound allows.
    WithinBound,
    /// The head's median is worse than the bound allows.
    Regression,
    /// The run-to-run spread exceeds the bound; no call can be made.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::WithinBound => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the comparison rules to paired samples (`base[i]` and
/// `head[i]` ran back to back).
pub fn verdict(base: &[f64], head: &[f64], better: Better, bound: f64) -> Verdict {
    let sign = sign(better);
    let beats = |h: f64, b: f64| sign * (h - b) > 0.0;
    let wins = wins(base, head, better);
    let (qb, qh) = (quartiles(base), quartiles(head));
    let (mb, mh) = (median(base), median(head));
    let spread = |q: [f64; 3], m: f64| (q[2] - q[0]) / m.abs();
    let all_better = head.iter().all(|&h| base.iter().all(|&b| beats(h, b)));
    if 10 * wins >= 9 * base.len() && beats(mh, mb) && (mh - mb).abs() > qb[2] - qb[0] {
        Verdict::Gain
    } else if spread(qb, mb).max(spread(qh, mh)) > bound && !all_better {
        Verdict::Unresolved
    } else if sign * (mb - mh) / mb.abs() > bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    }
}

/// +1 when larger is better, −1 when smaller is.
fn sign(better: Better) -> f64 {
    match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    }
}

/// Pairs in which the head beats the base; ties count for neither.
fn wins(base: &[f64], head: &[f64], better: Better) -> usize {
    let sign = sign(better);
    base.iter()
        .zip(head)
        .filter(|(b, h)| sign * (**h - **b) > 0.0)
        .count()
}

/// Settings of `e2e compare`.
#[derive(Debug, Clone)]
pub struct Args {
    /// The parent's benchmark binary.
    pub base: PathBuf,
    /// The change's benchmark binary.
    pub head: PathBuf,
    /// Pairs per workload.
    pub pairs: usize,
    /// Workloads to compare.
    pub workloads: Vec<Workload>,
    /// Seed of pair 0; pair `i` uses `seed + i` on both sides.
    pub seed: u64,
    /// `--seconds` passed to both sides.
    pub seconds: f64,
}

/// Runs the comparison and prints one table per workload. Returns
/// whether every metric stayed within its bound (gains included).
///
/// # Errors
///
/// When a binary cannot be run, exits non-zero, or reports an incorrect
/// run.
pub fn run(args: &Args) -> Result<bool, String> {
    let bounds = bounds();
    let mut ok = true;
    for &workload in &args.workloads {
        let mut sides: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..args.pairs {
            let seed = args.seed + i as u64;
            // Alternate which side runs first, so drift over the
            // comparison does not favour one side.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let bin = if side == 0 { &args.base } else { &args.head };
                sides[side].push(run_one(bin, workload, seed, args.seconds)?);
            }
        }
        println!(
            "\n{} ({} pairs, seeds {}..{})",
            workload.name(),
            args.pairs,
            args.seed,
            args.seed + args.pairs as u64 - 1
        );
        println!(
            "  {:<14} {:>32} {:>32} {:>6}  verdict",
            "metric", "base median [q1, q3]", "head median [q1, q3]", "wins"
        );
        for d in &END_TO_END {
            let pick = |side: &[BTreeMap<String, f64>]| -> Result<Vec<f64>, String> {
                side.iter()
                    .map(|m| {
                        m.get(d.name)
                            .copied()
                            .ok_or(format!("no {} in a result", d.name))
                    })
                    .collect()
            };
            let (b, h) = (pick(&sides[0])?, pick(&sides[1])?);
            let bound = *bounds
                .get(d.name)
                .ok_or(format!("no bound for {}", d.name))?;
            let v = verdict(&b, &h, d.better, bound);
            ok &= v != Verdict::Regression && v != Verdict::Unresolved;
            let wins = wins(&b, &h, d.better);
            let show = |xs: &[f64]| {
                let q = quartiles(xs);
                format!("{:.5} [{:.5}, {:.5}]", median(xs), q[0], q[2])
            };
            println!(
                "  {:<14} {:>32} {:>32} {:>3}/{:<2}  {} (bound {bound}, {})",
                d.name,
                show(&b),
                show(&h),
                wins,
                args.pairs,
                v.label(),
                d.unit
            );
        }
    }
    Ok(ok)
}

/// Runs one side once and returns its end-to-end metrics.
fn run_one(
    bin: &PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<BTreeMap<String, f64>, String> {
    let out = Command::new(bin)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} --workload {} --seed {seed} exited with {}",
            bin.display(),
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        Json::parse(last).map_err(|e| format!("bad result line from {}: {e}", bin.display()))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} reported an incorrect run", bin.display()));
    }
    match result.get("metrics") {
        Some(Json::Obj(m)) => Ok(m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect()),
        _ => Err(format!(
            "no metrics in the result line of {}",
            bin.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * (i as f64 / 9.0 - 0.5))
            .collect()
    }

    #[test]
    fn clear_speedup_is_a_gain() {
        let base = around(10.0, 0.2);
        let head = around(9.0, 0.2);
        assert_eq!(verdict(&base, &head, Better::Lower, 0.08), Verdict::Gain);
        // The same numbers read as throughput are a regression.
        assert_eq!(
            verdict(&base, &head, Better::Higher, 0.08),
            Verdict::Regression
        );
    }

    #[test]
    fn small_noise_is_within_bound() {
        let base = around(10.0, 0.2);
        let head: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.08),
            Verdict::WithinBound
        );
    }

    #[test]
    fn slowdown_past_the_bound_is_a_regression() {
        let base = around(10.0, 0.2);
        let head = around(11.0, 0.2);
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.08),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.15),
            Verdict::WithinBound
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = around(10.0, 4.0);
        let head: Vec<f64> = base.iter().map(|b| b * 1.01).collect();
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.08),
            Verdict::Unresolved
        );
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let base = around(10.0, 0.1);
        let mut head: Vec<f64> = base.iter().map(|b| b - 1.0).collect();
        head[0] = 20.0;
        head[1] = 20.0;
        assert_ne!(verdict(&base, &head, Better::Lower, 0.25), Verdict::Gain);
    }
}
