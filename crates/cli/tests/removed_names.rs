//! Names the CLI no longer accepts fail through the real binary with
//! exit status 1 and an error naming the value.

use std::process::Command;

#[test]
fn removed_scheduler_and_workload_exit_1_naming_the_value() {
    for (args, value) in [
        (
            &[
                "simulate",
                "--hosts",
                "4",
                "--vms",
                "6",
                "--scheduler",
                "megh-p2",
            ][..],
            "megh-p2",
        ),
        (
            &[
                "simulate",
                "--hosts",
                "4",
                "--vms",
                "6",
                "--workload",
                "diurnal",
            ],
            "diurnal",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_megh"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("{value:?}")), "{args:?}: {stderr}");
    }
}
