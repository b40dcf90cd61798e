//! Journal loading and report rendering for the `maopt-report` binary:
//! turns the run journals written by `maopt-obs` into Markdown/CSV
//! reports and A/B regression diffs.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use maopt_obs::{read_journal, EngineRecord, JournalError, Record};

use crate::report::markdown_table;

/// One loaded journal file.
#[derive(Debug, Clone)]
pub struct LoadedJournal {
    /// Where it came from.
    pub path: PathBuf,
    /// Its records, in file order.
    pub records: Vec<Record>,
}

/// Expands a mix of files and directories into the sorted list of
/// `.jsonl` journal files they contain (directories are walked
/// recursively).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn collect_journal_paths(inputs: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    fn walk(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        if path.is_dir() {
            for entry in std::fs::read_dir(path)? {
                walk(&entry?.path(), out)?;
            }
        } else if path.extension().is_some_and(|e| e == "jsonl") {
            out.push(path.to_path_buf());
        }
        Ok(())
    }
    let mut out = Vec::new();
    for input in inputs {
        walk(input, &mut out)?;
    }
    out.sort();
    Ok(out)
}

/// Loads every journal, failing loudly on the first schema error (the CI
/// smoke job turns that into a red build).
///
/// # Errors
///
/// Returns a message naming the offending file and line on I/O or schema
/// failure.
pub fn load_journals(paths: &[PathBuf]) -> Result<Vec<LoadedJournal>, String> {
    paths
        .iter()
        .map(|p| match read_journal(p) {
            Ok(records) => Ok(LoadedJournal {
                path: p.clone(),
                records,
            }),
            Err(JournalError::Io(e)) => Err(format!("{}: {e}", p.display())),
            Err(e) => Err(format!("{}: {e}", p.display())),
        })
        .collect()
}

/// Flattened view of one run journal, used by the report tables.
struct RunView<'a> {
    name: String,
    manifest: Option<&'a maopt_obs::Manifest>,
    rounds: Vec<&'a maopt_obs::RoundRecord>,
    ns: Vec<&'a maopt_obs::NearSamplingRecord>,
    end: Option<&'a maopt_obs::RunEnd>,
}

impl<'a> RunView<'a> {
    fn new(journal: &'a LoadedJournal) -> Self {
        let mut view = RunView {
            name: display_name(&journal.path),
            manifest: None,
            rounds: Vec::new(),
            ns: Vec::new(),
            end: None,
        };
        for r in &journal.records {
            match r {
                Record::Manifest(m) => view.manifest = Some(m),
                Record::Round(r) => view.rounds.push(r),
                Record::NearSampling(r) => view.ns.push(r),
                Record::RunEnd(e) => view.end = Some(e),
                Record::Engine(_) => {}
            }
        }
        view
    }

    /// Best FoM at the end of the run (prefers the explicit RunEnd).
    fn final_best_fom(&self) -> f64 {
        if let Some(end) = self.end {
            return end.best_fom;
        }
        self.rounds
            .iter()
            .map(|r| (r.sims_used, r.best_fom))
            .chain(self.ns.iter().map(|r| (r.sims_used, r.best_fom())))
            .max_by_key(|&(sims, _)| sims)
            .map_or(f64::NAN, |(_, fom)| fom)
    }
}

/// A short label for a journal file: its path relative to the last few
/// directory components (`ota/MA-Opt/run0`).
fn display_name(path: &Path) -> String {
    let parts: Vec<String> = path
        .with_extension("")
        .iter()
        .map(|c| c.to_string_lossy().into_owned())
        .collect();
    let keep = parts.len().saturating_sub(3);
    parts[keep..].join("/")
}

/// Best FoM a near-sampling round leaves behind.
trait NsBest {
    fn best_fom(&self) -> f64;
}

impl NsBest for maopt_obs::NearSamplingRecord {
    fn best_fom(&self) -> f64 {
        self.simulated_fom.min(self.incumbent_fom)
    }
}

fn fmt_e(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.3e}")
    }
}

fn fmt_f(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.3}")
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v.is_finite() {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Renders the full Markdown report: manifests, convergence, critic and
/// actor training, elite-set shrinkage, near-sampling fidelity, and
/// engine span/counter breakdowns.
pub fn render_markdown(journals: &[LoadedJournal]) -> String {
    let views: Vec<RunView> = journals.iter().map(RunView::new).collect();
    let engines: Vec<(&LoadedJournal, &EngineRecord)> = journals
        .iter()
        .flat_map(|j| {
            j.records.iter().filter_map(move |r| match r {
                Record::Engine(e) => Some((j, e)),
                _ => None,
            })
        })
        .collect();
    let mut out = String::from("# MA-Opt run report\n\n");

    // ---- Manifests. ----
    let rows: Vec<Vec<String>> = views
        .iter()
        .filter_map(|v| {
            v.manifest.map(|m| {
                vec![
                    v.name.clone(),
                    m.problem.clone(),
                    m.label.clone(),
                    m.seed.to_string(),
                    format!("{} + {}", m.init_size, m.budget),
                    m.jobs.to_string(),
                    format!("{} ({})", m.version, m.build),
                ]
            })
        })
        .collect();
    if !rows.is_empty() {
        out.push_str("## Runs\n\n");
        out.push_str(&markdown_table(
            &[
                "journal", "problem", "method", "seed", "sims", "jobs", "build",
            ],
            &rows,
        ));
        out.push('\n');
    }

    // ---- Convergence. ----
    let rows: Vec<Vec<String>> = views
        .iter()
        .filter_map(|v| {
            v.end.map(|e| {
                vec![
                    v.name.clone(),
                    e.rounds.to_string(),
                    e.sims.to_string(),
                    fmt_e(e.best_fom),
                    if e.success { "yes" } else { "no" }.to_string(),
                    fmt_f(e.total_s),
                    fmt_f(e.training_s),
                    fmt_f(e.simulation_s),
                    fmt_f(e.near_sampling_s),
                ]
            })
        })
        .collect();
    if !rows.is_empty() {
        out.push_str("## Convergence\n\n");
        out.push_str(&markdown_table(
            &[
                "journal",
                "rounds",
                "sims",
                "best FoM",
                "success",
                "wall (s)",
                "training (s)",
                "simulation (s)",
                "near-sampling (s)",
            ],
            &rows,
        ));
        out.push('\n');
    }

    // ---- Critic & actor training. ----
    let rows: Vec<Vec<String>> = views
        .iter()
        .filter(|v| !v.rounds.is_empty())
        .map(|v| {
            let first_loss = v
                .rounds
                .first()
                .and_then(|r| r.critic_loss.last())
                .copied()
                .unwrap_or(f64::NAN);
            let last_loss = v
                .rounds
                .last()
                .and_then(|r| r.critic_loss.last())
                .copied()
                .unwrap_or(f64::NAN);
            let actor_loss = mean(
                v.rounds
                    .iter()
                    .flat_map(|r| r.actors.iter().map(|a| a.loss)),
            );
            let simulated = v
                .rounds
                .iter()
                .flat_map(|r| &r.actors)
                .filter(|a| !a.simulated_fom.is_nan())
                .count();
            let feasible = v
                .rounds
                .iter()
                .flat_map(|r| &r.actors)
                .filter(|a| a.feasible)
                .count();
            // Mean |predicted − simulated| FoM over simulated proposals.
            let gap = mean(v.rounds.iter().flat_map(|r| {
                r.actors
                    .iter()
                    .map(|a| (a.predicted_fom - a.simulated_fom).abs())
            }));
            vec![
                v.name.clone(),
                format!("{} → {}", fmt_e(first_loss), fmt_e(last_loss)),
                fmt_e(actor_loss),
                format!("{feasible}/{simulated}"),
                fmt_e(gap),
            ]
        })
        .collect();
    if !rows.is_empty() {
        out.push_str("## Critic and actors\n\n");
        out.push_str(&markdown_table(
            &[
                "journal",
                "critic loss (first → last round)",
                "mean actor loss",
                "feasible/simulated proposals",
                "mean |pred − sim| FoM",
            ],
            &rows,
        ));
        out.push('\n');
    }

    // ---- Elite-set shrinkage. ----
    let rows: Vec<Vec<String>> = views
        .iter()
        .filter(|v| !v.rounds.is_empty())
        .map(|v| {
            let first = &v.rounds[0].elite;
            let last = &v.rounds[v.rounds.len() - 1].elite;
            let refresh = mean(v.rounds.iter().map(|r| r.elite.refreshed as f64));
            vec![
                v.name.clone(),
                last.size.to_string(),
                fmt_f(refresh),
                format!("{} → {}", fmt_f(first.diameter), fmt_f(last.diameter)),
                format!("{} → {}", fmt_e(first.volume), fmt_e(last.volume)),
                fmt_e(last.fom_spread),
            ]
        })
        .collect();
    if !rows.is_empty() {
        out.push_str("## Elite set\n\n");
        out.push_str(&markdown_table(
            &[
                "journal",
                "size",
                "mean refresh/round",
                "diameter (first → last)",
                "volume (first → last)",
                "final FoM spread",
            ],
            &rows,
        ));
        out.push('\n');
    }

    // ---- Near-sampling / critic fidelity. ----
    let rows: Vec<Vec<String>> = views
        .iter()
        .filter(|v| !v.ns.is_empty())
        .map(|v| {
            let accepted = v.ns.iter().filter(|r| r.accepted).count();
            let rho = mean(v.ns.iter().map(|r| r.spearman));
            vec![
                v.name.clone(),
                v.ns.len().to_string(),
                format!("{accepted}/{}", v.ns.len()),
                fmt_f(rho),
                fmt_e(mean(
                    v.ns.iter()
                        .map(|r| (r.predicted_fom - r.simulated_fom).abs()),
                )),
            ]
        })
        .collect();
    if !rows.is_empty() {
        out.push_str("## Near-sampling and critic fidelity\n\n");
        out.push_str(&markdown_table(
            &[
                "journal",
                "NS rounds",
                "accepted",
                "mean Spearman (rank fidelity)",
                "mean |pred − sim| FoM",
            ],
            &rows,
        ));
        out.push('\n');
    }

    // ---- Engine spans / counters / metrics. ----
    if !engines.is_empty() {
        out.push_str("## Engine\n\n");
        let rows: Vec<Vec<String>> = engines
            .iter()
            .flat_map(|(_, e)| {
                e.spans
                    .iter()
                    .map(move |(phase, secs)| vec![e.label.clone(), phase.clone(), fmt_f(*secs)])
            })
            .collect();
        out.push_str(&markdown_table(
            &["scope", "phase", "seconds (summed across workers)"],
            &rows,
        ));
        out.push('\n');

        let rows: Vec<Vec<String>> = engines
            .iter()
            .map(|(_, e)| {
                let c = &e.counters;
                vec![
                    e.label.clone(),
                    c.sims.to_string(),
                    c.cache_hits.to_string(),
                    c.cache_misses.to_string(),
                    c.retries.to_string(),
                    (c.panics + c.timeouts + c.failures).to_string(),
                ]
            })
            .collect();
        out.push_str(&markdown_table(
            &[
                "scope",
                "sims",
                "cache hits",
                "cache misses",
                "retries",
                "faults",
            ],
            &rows,
        ));
        out.push('\n');

        let mut rows: Vec<Vec<String>> = Vec::new();
        for (_, e) in &engines {
            for m in &e.metrics {
                match m {
                    maopt_exec::MetricSnapshot::Counter { name, value } => {
                        rows.push(vec![
                            e.label.clone(),
                            name.clone(),
                            "counter".into(),
                            value.to_string(),
                        ]);
                    }
                    maopt_exec::MetricSnapshot::Gauge { name, value } => {
                        rows.push(vec![
                            e.label.clone(),
                            name.clone(),
                            "gauge".into(),
                            fmt_e(*value),
                        ]);
                    }
                    maopt_exec::MetricSnapshot::Histogram(h) => {
                        rows.push(vec![
                            e.label.clone(),
                            h.name.clone(),
                            "histogram".into(),
                            format!(
                                "n={} mean={} p50={} p90={} max={}",
                                h.count,
                                fmt_e(h.mean()),
                                fmt_e(h.quantile(0.5)),
                                fmt_e(h.quantile(0.9)),
                                fmt_e(h.max)
                            ),
                        ]);
                    }
                }
            }
        }
        if !rows.is_empty() {
            out.push_str("### Metrics registry\n\n");
            out.push_str(&markdown_table(
                &["scope", "metric", "kind", "value"],
                &rows,
            ));
            out.push('\n');
        }
    }

    out
}

/// Renders the per-round records as flat CSV (one row per round, both
/// kinds), for spreadsheet-side analysis.
pub fn render_csv(journals: &[LoadedJournal]) -> String {
    let mut out = String::from(
        "journal,round,kind,sims_used,best_fom,critic_loss,mean_actor_loss,\
         elite_diameter,elite_volume,elite_refreshed,spearman,accepted\n",
    );
    for j in journals {
        let name = display_name(&j.path);
        for r in &j.records {
            match r {
                Record::Round(r) => {
                    let _ = writeln!(
                        out,
                        "{name},{},round,{},{:e},{:e},{:e},{:e},{:e},{},,",
                        r.round,
                        r.sims_used,
                        r.best_fom,
                        r.critic_loss.last().copied().unwrap_or(f64::NAN),
                        mean(r.actors.iter().map(|a| a.loss)),
                        r.elite.diameter,
                        r.elite.volume,
                        r.elite.refreshed,
                    );
                }
                Record::NearSampling(r) => {
                    let _ = writeln!(
                        out,
                        "{name},{},near_sampling,{},{:e},,,,,,{:e},{}",
                        r.round,
                        r.sims_used,
                        r.best_fom(),
                        r.spearman,
                        r.accepted,
                    );
                }
                _ => {}
            }
        }
    }
    out
}

/// One flagged regression from [`diff`].
#[derive(Debug, Clone)]
pub struct Regression {
    /// What regressed (`best FoM` / `wall time`).
    pub what: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Result of comparing two journal sets.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Markdown rendering of the comparison.
    pub markdown: String,
    /// Regressions exceeding the given tolerances (empty = clean).
    pub regressions: Vec<Regression>,
}

/// Relative increase of `b` over `a`, guarded against tiny baselines.
fn rel_increase(a: f64, b: f64) -> f64 {
    (b - a) / a.abs().max(1e-12)
}

/// Compares two journal sets (baseline `a` vs candidate `b`): mean best
/// FoM at budget and mean wall time, flagging relative regressions above
/// `fom_tol` / `time_tol` (e.g. `0.05` = 5 %).
pub fn diff(a: &[LoadedJournal], b: &[LoadedJournal], fom_tol: f64, time_tol: f64) -> DiffReport {
    // Engine-aggregate journals carry no run-level records; keep only
    // actual runs so counts and means aren't diluted.
    let is_run = |v: &RunView| v.manifest.is_some() || v.end.is_some();
    let a_views: Vec<RunView> = a.iter().map(RunView::new).filter(is_run).collect();
    let b_views: Vec<RunView> = b.iter().map(RunView::new).filter(is_run).collect();
    let a_fom = mean(a_views.iter().map(RunView::final_best_fom));
    let b_fom = mean(b_views.iter().map(RunView::final_best_fom));
    let a_time = mean(a_views.iter().filter_map(|v| v.end.map(|e| e.total_s)));
    let b_time = mean(b_views.iter().filter_map(|v| v.end.map(|e| e.total_s)));

    let mut regressions = Vec::new();
    // Lower FoM is better: a *rise* in mean best FoM is a regression.
    if a_fom.is_finite() && b_fom.is_finite() && rel_increase(a_fom, b_fom) > fom_tol {
        regressions.push(Regression {
            what: "best FoM".into(),
            detail: format!(
                "mean best FoM at budget rose {} → {} (> {:.1}% tolerance)",
                fmt_e(a_fom),
                fmt_e(b_fom),
                fom_tol * 100.0
            ),
        });
    }
    if a_time.is_finite() && b_time.is_finite() && rel_increase(a_time, b_time) > time_tol {
        regressions.push(Regression {
            what: "wall time".into(),
            detail: format!(
                "mean wall time rose {}s → {}s (> {:.1}% tolerance)",
                fmt_f(a_time),
                fmt_f(b_time),
                time_tol * 100.0
            ),
        });
    }

    let mut markdown = String::from("# Journal diff\n\n");
    markdown.push_str(&markdown_table(
        &["metric", "baseline", "candidate", "change"],
        &[
            vec![
                "runs".into(),
                a_views.len().to_string(),
                b_views.len().to_string(),
                String::new(),
            ],
            vec![
                "mean best FoM at budget".into(),
                fmt_e(a_fom),
                fmt_e(b_fom),
                format!("{:+.1}%", rel_increase(a_fom, b_fom) * 100.0),
            ],
            vec![
                "mean wall time (s)".into(),
                fmt_f(a_time),
                fmt_f(b_time),
                format!("{:+.1}%", rel_increase(a_time, b_time) * 100.0),
            ],
        ],
    ));
    markdown.push('\n');
    if regressions.is_empty() {
        markdown.push_str("No regressions beyond tolerance.\n");
    } else {
        markdown.push_str("## Regressions\n\n");
        for r in &regressions {
            let _ = writeln!(markdown, "- **{}**: {}", r.what, r.detail);
        }
    }
    DiffReport {
        markdown,
        regressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maopt_core::problems::ConstrainedToy;
    use maopt_core::runner::sample_initial_set;
    use maopt_core::{MaOpt, MaOptConfig};
    use maopt_exec::EvalEngine;
    use maopt_obs::Journal;

    fn tmp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("maopt-obsreport-{}-{name}", std::process::id()))
    }

    /// Writes one real tiny-run journal and returns its directory.
    fn write_run(dir: &Path, seed: u64) {
        let problem = ConstrainedToy::new(2);
        let init = sample_initial_set(&problem, 15, seed);
        let cfg = MaOptConfig {
            hidden: vec![16, 16],
            critic_steps: 10,
            actor_steps: 5,
            n_samples: 50,
            t_ns: 2,
            ..MaOptConfig::ma_opt(seed)
        };
        let journal = Journal::create(dir.join(format!("run{seed}.jsonl"))).unwrap();
        MaOpt::new(cfg).run_resumable(&problem, init, 12, &EvalEngine::serial(), &journal, None);
    }

    #[test]
    fn render_real_journal_covers_every_section() {
        let dir = tmp_dir("render");
        write_run(&dir, 3);
        let paths = collect_journal_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(paths.len(), 1);
        let journals = load_journals(&paths).unwrap();
        let md = render_markdown(&journals);
        for section in [
            "# MA-Opt run report",
            "## Runs",
            "## Convergence",
            "## Critic and actors",
            "## Elite set",
            "| journal |",
        ] {
            assert!(md.contains(section), "missing {section:?} in:\n{md}");
        }
        let csv = render_csv(&journals);
        assert!(csv.lines().count() > 1, "per-round CSV rows");
        assert!(csv.starts_with("journal,round,kind"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collect_walks_directories_and_accepts_files() {
        let dir = tmp_dir("collect");
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        std::fs::write(dir.join("nested/a.jsonl"), "").unwrap();
        std::fs::write(dir.join("b.jsonl"), "").unwrap();
        std::fs::write(dir.join("ignored.txt"), "").unwrap();
        let found = collect_journal_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(found.len(), 2);
        let single = collect_journal_paths(&[dir.join("b.jsonl")]).unwrap();
        assert_eq!(single.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_surfaces_schema_errors_with_location() {
        // An interior schema violation aborts the load with file + line.
        // (Only a malformed *final* line is tolerated, as the torn tail a
        // crash mid-append leaves behind — see `maopt_obs::read_journal`.)
        let dir = tmp_dir("badschema");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(
            &path,
            "{\"record\":\"mystery\",\"v\":1}\n{\"record\":\"mystery\",\"v\":1}\n",
        )
        .unwrap();
        let err = load_journals(&[path]).unwrap_err();
        assert!(err.contains("bad.jsonl"), "error names the file: {err}");
        assert!(err.contains("line 1"), "error names the line: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_flags_fom_and_time_regressions() {
        let dir = tmp_dir("diff");
        write_run(&dir, 5);
        let paths = collect_journal_paths(std::slice::from_ref(&dir)).unwrap();
        let journals = load_journals(&paths).unwrap();

        // Identical sets: clean diff.
        let clean = diff(&journals, &journals, 0.05, 0.5);
        assert!(clean.regressions.is_empty(), "{:?}", clean.regressions);
        assert!(clean.markdown.contains("No regressions"));

        // Candidate with a worse final FoM: flagged.
        let mut worse = journals.clone();
        for j in &mut worse {
            for r in &mut j.records {
                if let Record::RunEnd(e) = r {
                    e.best_fom = e.best_fom.abs() * 10.0 + 1.0;
                    e.total_s *= 100.0;
                }
            }
        }
        let flagged = diff(&journals, &worse, 0.05, 0.5);
        assert_eq!(flagged.regressions.len(), 2, "{}", flagged.markdown);
        assert!(flagged.markdown.contains("## Regressions"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
