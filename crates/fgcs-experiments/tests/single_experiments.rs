//! `fgcs-exp all` computes some data once and hands it on: its standard
//! trace to ten experiments, and `fig1a`/`fig1b`'s Figure 1 points to
//! `calibrate`. Run alone, each of those experiments computes everything
//! itself and must still write exactly the committed CSVs (and `trace`
//! exactly the committed `trace.jsonl`): the sharing is invisible
//! outside `all`.

use std::path::Path;
use std::process::{Command, Stdio};

/// Every experiment that takes data shared within `all`.
const SHARING: [&str; 11] = [
    "table2",
    "fig6",
    "fig7",
    "regularity",
    "trace",
    "predict",
    "depth",
    "rules",
    "seeds",
    "faults",
    "calibrate",
];

/// CSV and JSONL files those experiments write (`regularity` prints
/// only).
const FILES: usize = 11;

#[test]
fn each_sharing_experiment_alone_writes_the_committed_csvs() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("single_experiments");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    for name in SHARING {
        let status = Command::new(env!("CARGO_BIN_EXE_fgcs-exp"))
            .arg(name)
            .current_dir(&scratch)
            .stdout(Stdio::null())
            .status()
            .expect("spawn fgcs-exp");
        assert!(status.success(), "fgcs-exp {name}: {status}");
    }

    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut compared = 0;
    for entry in std::fs::read_dir(scratch.join("results")).expect("results dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "csv" && e != "jsonl") {
            continue;
        }
        let name = path.file_name().expect("file name");
        let golden = std::fs::read(committed.join(name)).expect("committed file");
        let fresh = std::fs::read(&path).expect("fresh file");
        assert!(fresh == golden, "{name:?} differs from the committed file");
        compared += 1;
    }
    assert_eq!(compared, FILES);
    std::fs::remove_dir_all(&scratch).expect("remove scratch dir");
}
