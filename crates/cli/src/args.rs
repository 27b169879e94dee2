//! A small, dependency-free argument parser: `--key value` pairs and
//! positional arguments.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand, flags, and positionals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The first positional token (the subcommand), if any.
    pub command: Option<String>,
    /// `--key value` options.
    pub options: BTreeMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
    /// Positional arguments after the subcommand.
    pub positionals: Vec<String>,
}

/// Errors produced while interpreting arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A required option was not supplied.
    Missing(&'static str),
    /// An option's value did not parse.
    Invalid {
        /// Option name.
        key: String,
        /// Supplied value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// The subcommand is unknown.
    UnknownCommand(String),
    /// An option or switch the subcommand does not declare.
    UnknownOption {
        /// The subcommand it was passed to.
        command: String,
        /// Option name, without the leading `--`.
        key: String,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Missing(key) => write!(f, "missing required option --{key}"),
            Self::Invalid {
                key,
                value,
                expected,
            } => {
                write!(f, "option --{key}={value:?} is not a valid {expected}")
            }
            Self::UnknownCommand(cmd) => write!(f, "unknown command {cmd:?} (try `megh help`)"),
            Self::UnknownOption { command, key } => {
                write!(
                    f,
                    "unknown option --{key} for `{command}` (try `megh help`)"
                )
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses a token stream (not including the program name).
    ///
    /// `--key value` forms an option unless the next token is itself an
    /// option/flag, in which case `--key` is a bare flag. `--key=value`
    /// is also accepted.
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Self {
        let tokens: Vec<String> = tokens.into_iter().collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let token = &tokens[i];
            if let Some(stripped) = token.strip_prefix("--") {
                if let Some((key, value)) = stripped.split_once('=') {
                    args.options.insert(key.to_string(), value.to_string());
                } else if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    args.options
                        .insert(stripped.to_string(), tokens[i + 1].clone());
                    i += 1;
                } else {
                    args.flags.push(stripped.to_string());
                }
            } else if args.command.is_none() {
                args.command = Some(token.clone());
            } else {
                args.positionals.push(token.clone());
            }
            i += 1;
        }
        args
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Whether a bare flag was supplied.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let args = parse("simulate extra --hosts 20 --vms 40 --full");
        assert_eq!(args.command.as_deref(), Some("simulate"));
        assert_eq!(args.get("hosts"), Some("20"));
        assert_eq!(args.get("vms"), Some("40"));
        assert!(args.has_flag("full"));
        assert_eq!(args.positionals, vec!["extra"]);
    }

    #[test]
    fn dashed_token_followed_by_value_is_an_option() {
        // Documented greedy semantics: `--full extra` binds as an
        // option; trailing flags must come last or use `=`.
        let args = parse("simulate --full extra");
        assert_eq!(args.get("full"), Some("extra"));
        assert!(!args.has_flag("full"));
    }

    #[test]
    fn equals_form_is_accepted() {
        let args = parse("simulate --hosts=8");
        assert_eq!(args.get("hosts"), Some("8"));
    }

    #[test]
    fn flag_before_option_is_not_swallowed() {
        let args = parse("run --verbose --hosts 4");
        assert!(args.has_flag("verbose"));
        assert_eq!(args.get("hosts"), Some("4"));
    }

    #[test]
    fn empty_input_is_empty() {
        let args = parse("");
        assert_eq!(args.command, None);
        assert!(args.options.is_empty());
    }

    #[test]
    fn errors_display_nonempty() {
        for e in [
            ArgsError::Missing("x"),
            ArgsError::Invalid {
                key: "k".into(),
                value: "v".into(),
                expected: "int",
            },
            ArgsError::UnknownCommand("zz".into()),
            ArgsError::UnknownOption {
                command: "c".into(),
                key: "k".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
