//! SIGTERM-at-round-K harness for `reproduce --checkpoint-dir`: the
//! process must drain gracefully — exit 0, no torn journal line — and a
//! `--resume` rerun must produce journals byte-identical (non-timing
//! fields) to an uninterrupted reference run.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use maopt_obs::Record;

const ARGS: &[&str] = &[
    "--circuit",
    "ota",
    "--runs",
    "1",
    "--budget",
    "12",
    "--init",
    "10",
    "--jobs",
    "2",
];

fn reproduce(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.args(ARGS)
        .arg("--journal-dir")
        .arg(dir.join("journals"))
        .arg("--out")
        .arg(dir.join("results"))
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    cmd
}

fn run_to_completion(mut cmd: Command, what: &str) {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{what} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Journal lines with run-end timing fields (outside the byte-identity
/// contract) zeroed; everything else byte-for-byte.
fn normalized_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        .lines()
        .map(|line| match Record::parse(line) {
            Ok(Record::RunEnd(mut end)) => {
                end.total_s = 0.0;
                end.training_s = 0.0;
                end.simulation_s = 0.0;
                end.near_sampling_s = 0.0;
                Record::RunEnd(end).to_json_line()
            }
            _ => line.to_string(),
        })
        .collect()
}

fn files_under(dir: &Path, keep: impl Fn(&Path) -> bool) -> Vec<PathBuf> {
    let mut found = Vec::new();
    if !dir.exists() {
        return found;
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if keep(&path) {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

fn run_journals(dir: &Path) -> Vec<PathBuf> {
    files_under(dir, |p| {
        p.file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("run"))
    })
}

fn any_checkpoint(dir: &Path) -> bool {
    !files_under(dir, |p| {
        p.file_name().is_some_and(|n| {
            // Only a generation-rotated snapshot (`run0.ckpt.0001.bin`);
            // never a `.tmp` still in flight.
            n.to_string_lossy()
                .split_once(".ckpt.")
                .and_then(|(_, rest)| rest.strip_suffix(".bin"))
                .is_some_and(|g| !g.is_empty() && g.bytes().all(|b| b.is_ascii_digit()))
        })
    })
    .is_empty()
}

#[test]
fn sigterm_drains_to_exit_zero_and_resumes_byte_identical() {
    let dir = std::env::temp_dir().join(format!("maopt-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ref_dir = dir.join("reference");
    let res_dir = dir.join("resumed");
    let ckpt_dir = dir.join("checkpoints");

    run_to_completion(reproduce(&ref_dir, &[]), "reference run");

    // Launch the checkpointing run and SIGTERM it as soon as the first
    // round checkpoint lands on disk — mid-flight, between rounds.
    let mut child = reproduce(&res_dir, &["--checkpoint-dir", ckpt_dir.to_str().unwrap()])
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    let interrupted = loop {
        if any_checkpoint(&ckpt_dir) {
            // std's Child::kill is SIGKILL; graceful needs kill(1) -TERM.
            let term = Command::new("kill")
                .args(["-TERM", &child.id().to_string()])
                .status()
                .unwrap();
            assert!(term.success());
            break true;
        }
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "interrupted run errored: {status}");
            break false;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared within the deadline"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    // Graceful drain is the contract: checkpoint, flush, exit 0.
    let status = child.wait().unwrap();
    assert!(
        status.success(),
        "SIGTERM must drain to exit 0, got {status}"
    );
    assert!(any_checkpoint(&ckpt_dir));

    // No torn line: every line of every journal written so far parses
    // strictly and every file ends at a line boundary. (read_journal
    // tolerates a torn tail, so check line-by-line.)
    for path in run_journals(&res_dir.join("journals")) {
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            Record::parse(line).unwrap_or_else(|e| {
                panic!("torn/invalid line {} in {}: {e}", i + 1, path.display())
            });
        }
        assert!(
            text.is_empty() || text.ends_with('\n'),
            "{} ends mid-line",
            path.display()
        );
    }

    run_to_completion(
        reproduce(
            &res_dir,
            &["--checkpoint-dir", ckpt_dir.to_str().unwrap(), "--resume"],
        ),
        "resumed run",
    );

    let ref_journals = run_journals(&ref_dir.join("journals"));
    assert!(!ref_journals.is_empty(), "reference journals must exist");
    for ref_path in &ref_journals {
        let rel = ref_path.strip_prefix(&ref_dir).unwrap();
        let res_path = res_dir.join(rel);
        assert_eq!(
            normalized_lines(ref_path),
            normalized_lines(&res_path),
            "journal {} must be byte-identical (non-timing fields) after \
             SIGTERM + resume (interrupted mid-flight: {interrupted})",
            rel.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
