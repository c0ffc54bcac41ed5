use std::collections::BTreeMap;

use crate::error::CliError;

/// A minimal `--key value` / `--flag` argument parser.
///
/// Hand-rolled to keep the workspace's dependency set to the approved
/// list; sufficient for the CLI's flat option space.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` for a command that takes `options`. An option
    /// `--name` followed by a token that does not start with `--`
    /// consumes it as the option's value; otherwise it is a boolean flag.
    /// An option not in `options` is a usage error, so a misspelt one
    /// fails instead of leaving its default in force.
    pub fn parse(argv: &[String], options: &[&str]) -> Result<Self, CliError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            let name = token.strip_prefix("--").ok_or_else(|| {
                CliError::Usage(format!("expected an option, found `{token}`"))
            })?;
            if name.is_empty() {
                return Err(CliError::Usage("empty option name `--`".into()));
            }
            if !options.contains(&name) {
                return Err(CliError::Usage(format!(
                    "unknown option `{token}`; `car help` lists each command's options"
                )));
            }
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                args.values.insert(name.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                args.flags.push(name.to_string());
                i += 1;
            }
        }
        Ok(args)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A raw option value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A required option value.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing required option --{name}")))
    }

    /// A parsed option with a default.
    pub fn parse_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                CliError::Usage(format!("invalid value `{raw}` for --{name}"))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTIONS: &[&str] = &["units", "stats", "seed", "quiet", "offset"];

    fn parse(tokens: &[&str]) -> Args {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv, OPTIONS).unwrap()
    }

    #[test]
    fn parses_values_and_flags() {
        let a = parse(&["--units", "8", "--stats", "--seed", "42"]);
        assert_eq!(a.get("units"), Some("8"));
        assert_eq!(a.get("seed"), Some("42"));
        assert!(a.flag("stats"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn trailing_option_is_flag() {
        let a = parse(&["--units", "8", "--quiet"]);
        assert!(a.flag("quiet"));
    }

    #[test]
    fn parse_or_with_defaults() {
        let a = parse(&["--units", "8"]);
        assert_eq!(a.parse_or("units", 1usize).unwrap(), 8);
        assert_eq!(a.parse_or("other", 5usize).unwrap(), 5);
        assert!(a.parse_or::<usize>("units", 0).is_ok());
    }

    #[test]
    fn parse_or_rejects_garbage() {
        let a = parse(&["--units", "abc"]);
        assert!(matches!(a.parse_or::<usize>("units", 0), Err(CliError::Usage(_))));
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]);
        assert!(matches!(a.require("input"), Err(CliError::Usage(_))));
    }

    #[test]
    fn rejects_positional_tokens() {
        let argv = vec!["positional".to_string()];
        assert!(matches!(Args::parse(&argv, OPTIONS), Err(CliError::Usage(_))));
    }

    #[test]
    fn negative_numbers_are_values() {
        // "-5" does not start with "--", so it is consumed as a value.
        let a = parse(&["--offset", "-5"]);
        assert_eq!(a.get("offset"), Some("-5"));
    }
}
