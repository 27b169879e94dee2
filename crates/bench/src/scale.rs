//! The probes' one option: `--full` for the paper's grids.

/// Scale of a probe binary (`fig1_workloads`, `fig6_scalability`,
/// `fig7_qtable_growth`, `fig8_sensitivity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The default: smaller fleets and grids, minutes on a laptop.
    Reduced,
    /// The paper's fleets and grids (`--full`).
    Full,
}

/// The parse behind [`scale_from_args`]; the error names the first
/// argument that is not a single `--full`.
fn parse_scale(args: impl IntoIterator<Item = String>) -> Result<Scale, String> {
    let mut scale = Scale::Reduced;
    for arg in args {
        if arg == "--full" && scale == Scale::Reduced {
            scale = Scale::Full;
        } else {
            return Err(format!("unexpected argument {arg:?} (usage: [--full])"));
        }
    }
    Ok(scale)
}

/// The scale the process arguments ask for: none is [`Scale::Reduced`],
/// a single `--full` is [`Scale::Full`]; anything else exits with
/// status 2, naming the offending argument.
pub fn scale_from_args() -> Scale {
    parse_scale(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Scale, String> {
        parse_scale(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn only_full_is_accepted() {
        assert_eq!(parse(""), Ok(Scale::Reduced));
        assert_eq!(parse("--full"), Ok(Scale::Full));
        for bad in [
            "--seeds 3",
            "--full --full",
            "full",
            "--full=1",
            "--threads 2",
        ] {
            let err = parse(bad).unwrap_err();
            let first_bad = if bad.starts_with("--full ") {
                "--full"
            } else {
                bad.split(' ').next().unwrap()
            };
            assert!(err.contains(first_bad), "{bad}: {err}");
        }
    }
}
