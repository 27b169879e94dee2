//! Typed command-line flag tables.
//!
//! Every `megh` subcommand and bench binary used to hand-roll its own
//! `--key value` lookups (and its own copy of the help text describing
//! them). This crate centralizes that: a [`FlagTable`] declares each
//! flag once — name, value placeholder, default, one-line description —
//! and provides both the typed getters *and* the generated `--help`
//! section, so the two can never drift apart.
//!
//! The crate is deliberately tiny and dependency-free:
//!
//! * [`FlagSpec`] / [`FlagTable`] — the declarations plus
//!   [`FlagTable::render_help`];
//! * [`FlagSource`] — anything flags can be read from (the CLI's parsed
//!   argument struct, or [`EnvArgs`] for standalone binaries);
//! * typed getters ([`FlagTable::parsed`], [`FlagTable::positive_usize`],
//!   [`FlagTable::switch`], [`FlagTable::required`]) returning
//!   [`FlagError`] on bad input.
//!
//! Getters assert that the requested flag is declared in the table, so
//! a command cannot quietly read a flag its help text does not mention.
//!
//! # Examples
//!
//! ```
//! use megh_flags::{EnvArgs, FlagSpec, FlagTable};
//!
//! const TABLE: FlagTable = FlagTable::new(
//!     "demo",
//!     &[
//!         FlagSpec::opt("seeds", "N", "8", "number of seeds"),
//!         FlagSpec::switch("full", "use the paper-scale fleet"),
//!     ],
//! );
//!
//! let args = EnvArgs::from_tokens(["--seeds", "3"].iter().map(|s| s.to_string()));
//! assert_eq!(TABLE.parsed(&args, "seeds", 8usize, "integer").unwrap(), 3);
//! assert!(!TABLE.switch(&args, "full"));
//! assert!(TABLE.render_help().contains("--seeds N"));
//! ```

// No unsafe code anywhere in this crate.
#![forbid(unsafe_code)]

use std::fmt;

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

/// A named set of flags for one subcommand or binary.
#[derive(Debug, Clone, Copy)]
pub struct FlagTable {
    /// Section title used in assertions and help output.
    pub title: &'static str,
    /// The declared flags, in help-rendering order.
    pub specs: &'static [FlagSpec],
}

/// Errors produced by the typed getters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// A required flag was not supplied.
    Missing(&'static str),
    /// A flag's value did not parse or is out of range.
    Invalid {
        /// Flag name.
        key: String,
        /// Supplied value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Missing(key) => write!(f, "missing required option --{key}"),
            Self::Invalid {
                key,
                value,
                expected,
            } => write!(f, "option --{key}={value:?} is not a valid {expected}"),
        }
    }
}

impl std::error::Error for FlagError {}

/// Anything flag values can be read from.
///
/// Implemented by [`EnvArgs`] here and by the CLI's parsed argument
/// struct in `megh-cli`.
pub trait FlagSource {
    /// The raw value of `--name VALUE` / `--name=VALUE`, if supplied.
    fn value(&self, name: &str) -> Option<&str>;
    /// Whether the bare switch `--name` was supplied.
    fn is_set(&self, name: &str) -> bool;
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
    pub fn get<'a>(&self, src: &'a impl FlagSource, name: &str) -> Option<&'a str> {
        self.declared(name);
        src.value(name)
    }

    /// A required string value.
    ///
    /// # Errors
    ///
    /// Returns [`FlagError::Missing`] when absent. The declared spec's
    /// name is returned in the error, so it must be `'static`.
    pub fn required<'a>(&self, src: &'a impl FlagSource, name: &str) -> Result<&'a str, FlagError> {
        let spec = self.declared(name);
        src.value(name).ok_or(FlagError::Missing(spec.name))
    }

    /// A parsed value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`FlagError::Invalid`] when the supplied value does not
    /// parse as `T`.
    pub fn parsed<T: std::str::FromStr>(
        &self,
        src: &impl FlagSource,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, FlagError> {
        self.declared(name);
        match src.value(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| FlagError::Invalid {
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
    /// Returns [`FlagError::Invalid`] for unparsable values or 0.
    pub fn positive_usize(
        &self,
        src: &impl FlagSource,
        name: &str,
        default: usize,
    ) -> Result<usize, FlagError> {
        let expected = "positive integer (>= 1)";
        let value = self.parsed(src, name, default, expected)?;
        if value == 0 {
            return Err(FlagError::Invalid {
                key: name.to_string(),
                value: "0".into(),
                expected,
            });
        }
        Ok(value)
    }

    /// Whether the declared switch was supplied.
    pub fn switch(&self, src: &impl FlagSource, name: &str) -> bool {
        self.declared(name);
        src.is_set(name)
    }
}

/// Process arguments as a [`FlagSource`], for standalone binaries that
/// have no subcommand grammar (the bench suite).
///
/// Tokenization matches the CLI's: `--key value` binds the next token
/// unless it starts with `--`; `--key=value` is accepted; anything else
/// is ignored. [`EnvArgs::is_set`] additionally matches a literal
/// `--name` token anywhere, preserving the bench binaries' historical
/// "`--full` anywhere wins" behaviour.
#[derive(Debug, Clone, Default)]
pub struct EnvArgs {
    tokens: Vec<String>,
}

impl EnvArgs {
    /// Captures the current process arguments (program name skipped).
    pub fn from_env() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Builds from an explicit token stream (tests, embedding).
    pub fn from_tokens(tokens: impl IntoIterator<Item = String>) -> Self {
        Self {
            tokens: tokens.into_iter().collect(),
        }
    }

    /// A `usize` flag with fall-back-to-default semantics: absent,
    /// malformed, or zero values all yield `default`. The bench
    /// binaries' historical `--seeds` / `--threads` contract.
    pub fn lenient_usize(&self, name: &str, default: usize) -> usize {
        self.value(name)
            .and_then(|v| v.parse().ok())
            .filter(|&v| v > 0)
            .unwrap_or(default)
    }
}

impl FlagSource for EnvArgs {
    fn value(&self, name: &str) -> Option<&str> {
        let mut i = 0;
        while i < self.tokens.len() {
            if let Some(stripped) = self.tokens[i].strip_prefix("--") {
                if let Some((key, value)) = stripped.split_once('=') {
                    if key == name {
                        return Some(value);
                    }
                } else if stripped == name {
                    if let Some(next) = self.tokens.get(i + 1) {
                        if !next.starts_with("--") {
                            return Some(next);
                        }
                    }
                    return None;
                }
            }
            i += 1;
        }
        None
    }

    fn is_set(&self, name: &str) -> bool {
        self.tokens.iter().any(|t| {
            t.strip_prefix("--")
                .is_some_and(|stripped| stripped == name)
        })
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

    fn env(line: &str) -> EnvArgs {
        EnvArgs::from_tokens(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parsed_reads_value_or_default() {
        let args = env("--seeds 5");
        assert_eq!(TABLE.parsed(&args, "seeds", 8usize, "integer").unwrap(), 5);
        assert_eq!(
            TABLE.parsed(&args, "threads", 1usize, "integer").unwrap(),
            1
        );
    }

    #[test]
    fn equals_form_is_accepted() {
        let args = env("--seeds=12");
        assert_eq!(TABLE.parsed(&args, "seeds", 8usize, "integer").unwrap(), 12);
    }

    #[test]
    fn malformed_value_is_an_error() {
        let args = env("--seeds abc");
        let err = TABLE.parsed(&args, "seeds", 8usize, "integer").unwrap_err();
        assert!(matches!(err, FlagError::Invalid { .. }));
        assert!(err.to_string().contains("--seeds"));
    }

    #[test]
    fn positive_usize_rejects_zero() {
        let args = env("--threads 0");
        assert!(TABLE.positive_usize(&args, "threads", 1).is_err());
        let args = env("--threads 4");
        assert_eq!(TABLE.positive_usize(&args, "threads", 1).unwrap(), 4);
        assert_eq!(TABLE.positive_usize(&env(""), "threads", 2).unwrap(), 2);
    }

    #[test]
    fn required_errors_when_absent() {
        assert_eq!(
            TABLE.required(&env(""), "out").unwrap_err(),
            FlagError::Missing("out")
        );
        assert_eq!(
            TABLE.required(&env("--out x.json"), "out").unwrap(),
            "x.json"
        );
    }

    #[test]
    fn switch_detection() {
        assert!(TABLE.switch(&env("--full"), "full"));
        assert!(TABLE.switch(&env("--seeds 3 --full"), "full"));
        assert!(!TABLE.switch(&env("--seeds 3"), "full"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_flag_is_a_programming_error() {
        let _ = TABLE.parsed(&env(""), "bogus", 0usize, "integer");
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

    #[test]
    fn lenient_usize_matches_bench_contract() {
        assert_eq!(env("--seeds 3").lenient_usize("seeds", 8), 3);
        assert_eq!(env("--seeds abc").lenient_usize("seeds", 8), 8);
        assert_eq!(env("--seeds 0").lenient_usize("seeds", 8), 8);
        assert_eq!(env("").lenient_usize("seeds", 8), 8);
    }

    #[test]
    fn env_args_value_stops_at_next_flag() {
        let args = env("--full --seeds 3");
        assert_eq!(args.value("full"), None);
        assert!(args.is_set("full"));
        assert_eq!(args.value("seeds"), Some("3"));
    }
}
