//! Byte-identity of the simulated STi7200 results: `repro table3` and
//! `repro figure8` run on the simulation kernel, and their output must
//! not change by a single byte when the kernel changes. The golden
//! files are the outputs of the kernel the current schedule was
//! validated on; regenerate them only for a change that is meant to
//! alter the simulated results.

use std::process::Command;

fn assert_output(experiment: &str, golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(experiment)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro {experiment} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("repro output is UTF-8");
    assert_eq!(got, golden, "repro {experiment} output changed");
}

#[test]
fn table3_is_byte_identical() {
    assert_output("table3", include_str!("golden/table3.txt"));
}

#[test]
fn figure8_is_byte_identical() {
    assert_output("figure8", include_str!("golden/figure8.txt"));
}
