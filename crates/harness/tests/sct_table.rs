//! `sct-table`'s subcommand check runs before the study: help and typos
//! answer at once instead of after a whole pipeline run.

use std::process::Command;

fn sct_table(arg: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sct-table"))
        .arg(arg)
        .output()
        .expect("sct-table runs")
}

#[test]
fn help_prints_the_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = sct_table(flag);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: sct-table <table1|"),
            "{flag}: {stdout}"
        );
        assert!(
            out.stderr.is_empty(),
            "{flag}: nothing may run before the usage"
        );
    }
}

#[test]
fn an_unknown_subcommand_exits_2_before_any_exploration() {
    let out = sct_table("table9");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown table/figure: table9"), "{stderr}");
    assert!(
        !stderr.contains("running the pipeline"),
        "the study ran before the subcommand was checked: {stderr}"
    );
}
