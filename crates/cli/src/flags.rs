//! Typed flag tables: each subcommand declares its flags once — name,
//! value placeholder, default, one-line description — and the typed
//! getters and the generated `megh help` section both read that
//! declaration, so the two can never drift apart.
//!
//! Getters assert that the requested flag is declared in the table, so
//! a command cannot quietly read a flag its help text does not mention.

use crate::args::{Args, ArgsError};

/// One declared flag: everything the parser and the help text need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagSpec {
    /// Flag name without the leading `--`.
    pub name: &'static str,
    /// Value placeholder for the help line (`None` for a bare switch).
    pub value: Option<&'static str>,
    /// Default rendered in the help line; empty for required flags and
    /// switches.
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
}

impl FlagSpec {
    /// A `--name VALUE` option.
    pub const fn opt(
        name: &'static str,
        value: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Self {
        Self {
            name,
            value: Some(value),
            default,
            help,
        }
    }

    /// A bare `--name` switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            value: None,
            default: "",
            help,
        }
    }

    /// The `--name VALUE` column of the help line.
    fn usage(&self) -> String {
        match self.value {
            Some(value) => format!("--{} {}", self.name, value),
            None => format!("--{}", self.name),
        }
    }
}

/// A named set of flags for one subcommand.
#[derive(Debug, Clone, Copy)]
pub struct FlagTable {
    /// Section title used in assertions and help output.
    pub title: &'static str,
    /// The declared flags, in help-rendering order.
    pub specs: &'static [FlagSpec],
}

impl FlagTable {
    /// Declares a table (usable in `const` position).
    pub const fn new(title: &'static str, specs: &'static [FlagSpec]) -> Self {
        Self { title, specs }
    }

    /// The spec for `name`, if declared.
    pub fn spec(&self, name: &str) -> Option<&FlagSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    fn declared(&self, name: &str) -> &FlagSpec {
        match self.spec(name) {
            Some(spec) => spec,
            None => panic!("flag --{name} is not declared in table {:?}", self.title),
        }
    }

    /// The generated help section: one aligned line per flag, with the
    /// default in trailing brackets when one is declared.
    pub fn render_help(&self) -> String {
        let width = self
            .specs
            .iter()
            .map(|s| s.usage().len())
            .max()
            .unwrap_or(0)
            .max(28);
        let mut out = format!("{}:\n", self.title);
        for spec in self.specs {
            out.push_str(&format!("  {:<width$}  {}", spec.usage(), spec.help));
            if !spec.default.is_empty() {
                out.push_str(&format!(" [{}]", spec.default));
            }
            out.push('\n');
        }
        out
    }

    /// A string value with the table's declared default semantics left
    /// to the caller (returns `None` when absent).
    pub fn get<'a>(&self, args: &'a Args, name: &str) -> Option<&'a str> {
        self.declared(name);
        args.get(name)
    }

    /// A required string value.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Missing`] when absent. The declared spec's
    /// name is returned in the error, so it must be `'static`.
    pub fn required<'a>(&self, args: &'a Args, name: &str) -> Result<&'a str, ArgsError> {
        let spec = self.declared(name);
        args.get(name).ok_or(ArgsError::Missing(spec.name))
    }

    /// A parsed value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Invalid`] when the supplied value does not
    /// parse as `T`.
    pub fn parsed<T: std::str::FromStr>(
        &self,
        args: &Args,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgsError> {
        self.declared(name);
        match args.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgsError::Invalid {
                key: name.to_string(),
                value: raw.to_string(),
                expected,
            }),
        }
    }

    /// A parsed `usize` that must be ≥ 1 (worker counts, seed counts).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Invalid`] for unparsable values or 0.
    pub fn positive_usize(
        &self,
        args: &Args,
        name: &str,
        default: usize,
    ) -> Result<usize, ArgsError> {
        let expected = "positive integer (>= 1)";
        let value = self.parsed(args, name, default, expected)?;
        if value == 0 {
            return Err(ArgsError::Invalid {
                key: name.to_string(),
                value: "0".into(),
                expected,
            });
        }
        Ok(value)
    }

    /// Whether the declared switch was supplied.
    pub fn switch(&self, args: &Args, name: &str) -> bool {
        self.declared(name);
        args.has_flag(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: FlagTable = FlagTable::new(
        "test flags",
        &[
            FlagSpec::opt("seeds", "N", "8", "number of seeds"),
            FlagSpec::opt("threads", "T", "1", "worker threads"),
            FlagSpec::opt("out", "FILE", "", "output path (required)"),
            FlagSpec::switch("full", "paper-scale fleet"),
        ],
    );

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parsed_reads_value_or_default() {
        let args = args("x --seeds 5");
        assert_eq!(TABLE.parsed(&args, "seeds", 8usize, "integer").unwrap(), 5);
        assert_eq!(
            TABLE.parsed(&args, "threads", 1usize, "integer").unwrap(),
            1
        );
    }

    #[test]
    fn equals_form_is_accepted() {
        let args = args("x --seeds=12");
        assert_eq!(TABLE.parsed(&args, "seeds", 8usize, "integer").unwrap(), 12);
    }

    #[test]
    fn malformed_value_is_an_error() {
        let args = args("x --seeds abc");
        let err = TABLE.parsed(&args, "seeds", 8usize, "integer").unwrap_err();
        assert!(matches!(err, ArgsError::Invalid { .. }));
        assert!(err.to_string().contains("--seeds"));
    }

    #[test]
    fn positive_usize_rejects_zero() {
        assert!(TABLE
            .positive_usize(&args("x --threads 0"), "threads", 1)
            .is_err());
        assert_eq!(
            TABLE
                .positive_usize(&args("x --threads 4"), "threads", 1)
                .unwrap(),
            4
        );
        assert_eq!(TABLE.positive_usize(&args("x"), "threads", 2).unwrap(), 2);
    }

    #[test]
    fn required_errors_when_absent() {
        assert_eq!(
            TABLE.required(&args("x"), "out").unwrap_err(),
            ArgsError::Missing("out")
        );
        assert_eq!(
            TABLE.required(&args("x --out x.json"), "out").unwrap(),
            "x.json"
        );
    }

    #[test]
    fn switch_detection() {
        assert!(TABLE.switch(&args("x --full"), "full"));
        assert!(TABLE.switch(&args("x --seeds 3 --full"), "full"));
        assert!(!TABLE.switch(&args("x --seeds 3"), "full"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_flag_is_a_programming_error() {
        let _ = TABLE.parsed(&args("x"), "bogus", 0usize, "integer");
    }

    #[test]
    fn render_help_lists_every_flag_with_defaults() {
        let help = TABLE.render_help();
        assert!(help.starts_with("test flags:\n"));
        assert!(help.contains("--seeds N"));
        assert!(help.contains("[8]"));
        assert!(help.contains("--full"));
        assert!(!help.contains("--out FILE  output path (required) []"));
    }
}
