//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: the subcommand plus `--key value` options and
/// bare `--flag` booleans.
#[derive(Debug, Default)]
pub struct Args {
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Argument errors with the offending flag.
#[derive(Debug)]
pub enum ArgError {
    /// A `--flag` had no value.
    MissingValue(String),
    /// A required flag was absent.
    Required(&'static str),
    /// A value failed to parse.
    Invalid(&'static str, String),
    /// A token did not look like `--flag`.
    Unexpected(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::Required(flag) => write!(f, "missing required flag --{flag}"),
            ArgError::Invalid(flag, v) => write!(f, "invalid value '{v}' for --{flag}"),
            ArgError::Unexpected(tok) => write!(f, "unexpected argument '{tok}'"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `--key value` pairs.
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        Self::parse_with_flags(argv, &[])
    }

    /// Parses `--key value` pairs, treating any flag named in `bools` as a
    /// valueless boolean (present or absent).
    pub fn parse_with_flags(argv: &[String], bools: &[&str]) -> Result<Args, ArgError> {
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgError::Unexpected(tok.clone()));
            };
            if bools.contains(&key) {
                flags.push(key.to_string());
                i += 1;
                continue;
            }
            let Some(value) = argv.get(i + 1) else {
                return Err(ArgError::MissingValue(key.to_string()));
            };
            options.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Args { options, flags })
    }

    /// Whether a boolean `--flag` was present.
    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A required string option.
    pub fn required(&self, key: &'static str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(|s| s.as_str())
            .ok_or(ArgError::Required(key))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// A comma-separated option's items, trimmed, empty ones dropped: none
    /// when the option is absent.
    pub fn list(&self, key: &str) -> Vec<String> {
        let items = self.get(key).unwrap_or_default().split(',').map(str::trim);
        items.filter(|s| !s.is_empty()).map(String::from).collect()
    }

    /// An optional parsed option: `None` when absent.
    pub fn get_opt<T: std::str::FromStr>(&self, key: &'static str) -> Result<Option<T>, ArgError> {
        let parse = |v: &String| v.parse().map_err(|_| ArgError::Invalid(key, v.clone()));
        self.options.get(key).map(parse).transpose()
    }

    /// An optional parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        key: &'static str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_flag_pairs() {
        let a = Args::parse(&argv("--store /tmp/s --name v --seconds 4")).unwrap();
        assert_eq!(a.required("store").unwrap(), "/tmp/s");
        assert_eq!(a.get("name"), Some("v"));
        assert_eq!(a.get_or("seconds", 0u32).unwrap(), 4);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
        assert_eq!(a.get_opt::<u32>("seconds").unwrap(), Some(4));
        assert_eq!(a.get_opt::<u32>("limit").unwrap(), None);
        let a = Args::parse(&argv("--labels car,,person --pins ,")).unwrap();
        assert_eq!(a.list("labels"), ["car", "person"]);
        assert!(a.list("pins").is_empty() && a.list("nodes").is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(
            Args::parse(&argv("store /tmp")),
            Err(ArgError::Unexpected(_))
        ));
        assert!(matches!(
            Args::parse(&argv("--store")),
            Err(ArgError::MissingValue(_))
        ));
        let a = Args::parse(&argv("--seconds four")).unwrap();
        assert!(matches!(
            a.get_or("seconds", 0u32),
            Err(ArgError::Invalid("seconds", _))
        ));
        assert!(matches!(
            a.get_opt::<u32>("seconds"),
            Err(ArgError::Invalid("seconds", _))
        ));
        let a = Args::parse(&[]).unwrap();
        assert!(matches!(
            a.required("store"),
            Err(ArgError::Required("store"))
        ));
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = Args::parse_with_flags(&argv("--storage --store /tmp/s"), &["storage"]).unwrap();
        assert!(a.has("storage"));
        assert!(!a.has("verbose"));
        assert_eq!(a.required("store").unwrap(), "/tmp/s");
        // Without the allow-list the same token needs a value.
        assert!(matches!(
            Args::parse(&argv("--storage")),
            Err(ArgError::MissingValue(_))
        ));
    }
}
