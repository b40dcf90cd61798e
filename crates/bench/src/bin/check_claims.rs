//! Evaluates the paper's comparative claims against the CSV tables emitted
//! by `reproduce` (see `EXPERIMENTS.md` for the claim definitions):
//!
//! * **C1** — every RL-inspired method beats BO (success rate and average
//!   FoM).
//! * **C2** — MA-Opt² and MA-Opt achieve the highest success rates.
//! * **C3** — MA-Opt attains the lowest average FoM.
//! * **C4** — MA-Opt's minimum target metric beats DNN-Opt's.
//! * **C5** — modeled runtime ordering: DNN-Opt < multi-actor variants < BO.
//!
//! ```text
//! check_claims [--dir results]
//! ```
//!
//! Exits non-zero if any evaluated claim fails on any circuit.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Row {
    successes: usize,
    runs: usize,
    min_target: Option<f64>,
    log10_avg_fom: f64,
    modeled_h: f64,
}

fn parse_table(path: &PathBuf) -> Result<HashMap<String, Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = HashMap::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() < 7 {
            continue;
        }
        let parse = |s: &str| -> Result<f64, String> {
            s.parse().map_err(|e| format!("bad number '{s}': {e}"))
        };
        rows.insert(
            f[0].to_string(),
            Row {
                successes: f[1].parse().map_err(|e| format!("successes: {e}"))?,
                runs: f[2].parse().map_err(|e| format!("runs: {e}"))?,
                min_target: if f[3].is_empty() {
                    None
                } else {
                    Some(parse(f[3])?)
                },
                log10_avg_fom: parse(f[4])?,
                modeled_h: parse(f[6])?,
            },
        );
    }
    Ok(rows)
}

/// C1 as EXPERIMENTS.md states it: *every* RL-inspired method matches or
/// beats BO's success count and has a lower (better) log10 average FoM.
fn c1_holds(bo: &Row, rl: &[&Row]) -> bool {
    rl.iter()
        .all(|r| r.successes >= bo.successes && r.log10_avg_fom < bo.log10_avg_fom)
}

struct Verdicts {
    passed: usize,
    failed: usize,
}

impl Verdicts {
    fn check(&mut self, circuit: &str, claim: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
            println!("  PASS  {circuit}/{claim}: {detail}");
        } else {
            self.failed += 1;
            println!("  FAIL  {circuit}/{claim}: {detail}");
        }
    }
}

fn main() -> ExitCode {
    let mut dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--dir" {
            dir = PathBuf::from(args.next().expect("--dir needs a value"));
        }
    }

    let mut v = Verdicts {
        passed: 0,
        failed: 0,
    };
    let mut any = false;
    for circuit in ["ota", "tia", "ldo"] {
        let path = dir.join(format!("table_{circuit}.csv"));
        let rows = match parse_table(&path) {
            Ok(r) => r,
            Err(e) => {
                println!("  SKIP  {circuit}: {e}");
                continue;
            }
        };
        any = true;
        let get = |m: &str| rows.get(m).cloned();
        let (Some(bo), Some(dnn), Some(ma1), Some(ma2), Some(ma)) = (
            get("BO"),
            get("DNN-Opt"),
            get("MA-Opt1"),
            get("MA-Opt2"),
            get("MA-Opt"),
        ) else {
            println!("  SKIP  {circuit}: table incomplete");
            continue;
        };

        // C1: every RL-inspired method ≥ BO on success and < BO on aFoM.
        let rl = [&dnn, &ma1, &ma2, &ma];
        let worst_rl_fom = rl
            .iter()
            .map(|r| r.log10_avg_fom)
            .fold(f64::NEG_INFINITY, f64::max);
        v.check(
            circuit,
            "C1",
            c1_holds(&bo, &rl),
            format!(
                "BO {}/{} aFoM {:+.2} vs worst RL aFoM {:+.2}",
                bo.successes, bo.runs, bo.log10_avg_fom, worst_rl_fom
            ),
        );

        // C2: MA-Opt² and MA-Opt reach the top success rate.
        let top = rl
            .iter()
            .map(|r| r.successes)
            .max()
            .unwrap_or(0)
            .max(bo.successes);
        v.check(
            circuit,
            "C2",
            ma.successes == top && ma2.successes == top,
            format!(
                "top {top}, MA-Opt2 {} MA-Opt {}",
                ma2.successes, ma.successes
            ),
        );

        // C3: MA-Opt has the lowest average FoM of all five methods.
        let min_fom = [&bo, &dnn, &ma1, &ma2, &ma]
            .iter()
            .map(|r| r.log10_avg_fom)
            .fold(f64::INFINITY, f64::min);
        v.check(
            circuit,
            "C3",
            (ma.log10_avg_fom - min_fom).abs() < 1e-9,
            format!("MA-Opt {:+.2} vs min {:+.2}", ma.log10_avg_fom, min_fom),
        );

        // C4: MA-Opt's min target beats DNN-Opt's (when both are feasible).
        match (ma.min_target, dnn.min_target) {
            (Some(m), Some(d)) => v.check(
                circuit,
                "C4",
                m < d,
                format!("MA-Opt {m:.4} vs DNN-Opt {d:.4}"),
            ),
            (Some(_), None) => v.check(circuit, "C4", true, "only MA-Opt feasible".into()),
            _ => v.check(
                circuit,
                "C4",
                false,
                "MA-Opt found no feasible design".into(),
            ),
        }

        // C5: modeled runtime ordering DNN-Opt < MA-Opt ≤ MA-Opt² and BO slowest.
        v.check(
            circuit,
            "C5",
            dnn.modeled_h < ma.modeled_h
                && ma.modeled_h <= ma2.modeled_h + 1e-9
                && bo.modeled_h > dnn.modeled_h,
            format!(
                "modeled h: DNN {:.2} MA {:.2} MA2 {:.2} BO {:.2}",
                dnn.modeled_h, ma.modeled_h, ma2.modeled_h, bo.modeled_h
            ),
        );
    }

    println!("\n{} passed, {} failed", v.passed, v.failed);
    if !any {
        eprintln!("no tables found — run `reproduce` first");
        return ExitCode::from(2);
    }
    if v.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(successes: usize, log10_avg_fom: f64) -> Row {
        Row {
            successes,
            runs: 4,
            min_target: None,
            log10_avg_fom,
            modeled_h: 1.0,
        }
    }

    #[test]
    fn c1_needs_every_rl_method_to_beat_bo_on_fom() {
        let bo = row(0, -0.49);
        let (ma1, ma2, ma) = (row(2, -0.54), row(2, -0.59), row(2, -0.59));
        // DNN-Opt's aFoM is worse than BO's, though the best RL aFoM beats it.
        let dnn = row(2, -0.35);
        assert!(!c1_holds(&bo, &[&dnn, &ma1, &ma2, &ma]));
        let dnn = row(2, -0.61);
        assert!(c1_holds(&bo, &[&dnn, &ma1, &ma2, &ma]));
    }

    #[test]
    fn c1_needs_every_rl_method_to_match_bo_on_success() {
        let bo = row(2, -0.5);
        let fewer = row(1, -3.0);
        let more = row(3, -3.0);
        assert!(!c1_holds(&bo, &[&more, &fewer]));
        assert!(c1_holds(&bo, &[&more, &row(2, -0.6)]));
    }
}
