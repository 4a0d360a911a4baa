//! Minimal dependency-free argument parsing for `ldpc-tool`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A command name and the options it accepts (names without the leading
/// `--`; `--help` / `-h` is accepted by every command).
pub type CommandOptions = (&'static str, &'static [&'static str]);

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Error produced while parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// An option was given without a value.
    MissingValue(String),
    /// An option value failed to parse.
    InvalidValue {
        /// Option name.
        option: String,
        /// Raw value.
        value: String,
    },
    /// Unexpected positional argument.
    UnexpectedPositional(String),
    /// An option the command does not accept.
    UnknownOption {
        /// The command.
        command: String,
        /// The option as given, without the leading `--`.
        option: String,
        /// The options the command accepts.
        accepted: &'static [&'static str],
        /// Other commands that accept an option of that name.
        elsewhere: Vec<&'static str>,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingCommand => write!(f, "missing subcommand (try `ldpc-tool help`)"),
            Self::MissingValue(opt) => write!(f, "option --{opt} expects a value"),
            Self::InvalidValue { option, value } => {
                write!(f, "invalid value {value:?} for --{option}")
            }
            Self::UnexpectedPositional(arg) => write!(f, "unexpected argument {arg:?}"),
            Self::UnknownOption {
                command,
                option,
                accepted,
                elsewhere,
            } => {
                write!(f, "unknown option --{option} for {command}")?;
                if !elsewhere.is_empty() {
                    write!(f, " (an option of {})", elsewhere.join(", "))?;
                }
                if accepted.is_empty() {
                    write!(f, "; {command} takes no options")
                } else {
                    write!(f, "; {command} accepts --{}", accepted.join(", --"))
                }
            }
        }
    }
}

impl Error for ArgError {}

/// Options that never take a value.
const BOOLEAN_FLAGS: &[&str] = &["random", "zeros", "help", "c2", "demo", "resume"];

impl ParsedArgs {
    /// Parses raw arguments (without the program name). Each option must
    /// be one the command lists in `commands`; a command missing from the
    /// table is left for the dispatcher to reject.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on malformed input or an option the command
    /// does not accept.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        commands: &[CommandOptions],
    ) -> Result<Self, ArgError> {
        let mut it = args.into_iter().peekable();
        let mut command = it.next().ok_or(ArgError::MissingCommand)?;
        if command == "--help" || command == "-h" {
            command = "help".to_owned();
        }
        if command.starts_with('-') {
            return Err(ArgError::MissingCommand);
        }
        let accepted = commands
            .iter()
            .find(|(name, _)| *name == command)
            .map(|(_, options)| *options);
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = it.next() {
            if arg == "-h" {
                flags.push("help".to_owned());
            } else if let Some(name) = arg.strip_prefix("--") {
                if let Some(accepted) = accepted {
                    if name != "help" && !accepted.contains(&name) {
                        return Err(ArgError::UnknownOption {
                            command,
                            option: name.to_owned(),
                            accepted,
                            elsewhere: commands
                                .iter()
                                .filter(|(_, options)| options.contains(&name))
                                .map(|(other, _)| *other)
                                .collect(),
                        });
                    }
                }
                if BOOLEAN_FLAGS.contains(&name) {
                    flags.push(name.to_owned());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(name.to_owned()))?;
                    options.insert(name.to_owned(), value);
                }
            } else {
                return Err(ArgError::UnexpectedPositional(arg));
            }
        }
        Ok(Self {
            command,
            options,
            flags,
        })
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::InvalidValue`] if present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::InvalidValue {
                option: name.to_owned(),
                value: raw.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMANDS: &[CommandOptions] = &[
        ("simulate", &["ebn0", "frames", "iters", "random", "zeros"]),
        ("sweep", &["ebn0s", "frames"]),
        ("info", &[]),
    ];

    fn parse(words: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(words.iter().map(|s| s.to_string()), COMMANDS)
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["simulate", "--ebn0", "4.0", "--random", "--frames", "10"]).unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.get("ebn0"), Some("4.0"));
        assert!(a.flag("random"));
        assert!(!a.flag("zeros"));
        assert_eq!(a.get_or("frames", 0u64).unwrap(), 10);
        assert_eq!(a.get_or("iters", 18u32).unwrap(), 18); // default
    }

    #[test]
    fn help_flag_maps_to_help_command() {
        assert_eq!(parse(&["--help"]).unwrap().command, "help");
        assert_eq!(parse(&["-h"]).unwrap().command, "help");
        // After a subcommand, both spellings surface as the `help` flag.
        assert!(parse(&["simulate", "--help"]).unwrap().flag("help"));
        assert!(parse(&["simulate", "-h"]).unwrap().flag("help"));
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse(&["--ebn0", "4"]).unwrap_err(),
            ArgError::MissingCommand
        );
    }

    #[test]
    fn missing_value_rejected() {
        assert_eq!(
            parse(&["simulate", "--ebn0"]).unwrap_err(),
            ArgError::MissingValue("ebn0".into())
        );
    }

    #[test]
    fn invalid_value_rejected() {
        let a = parse(&["simulate", "--ebn0", "four"]).unwrap();
        assert!(matches!(
            a.get_or("ebn0", 0.0f64).unwrap_err(),
            ArgError::InvalidValue { .. }
        ));
    }

    #[test]
    fn stray_positional_rejected() {
        assert!(matches!(
            parse(&["simulate", "oops"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn unknown_option_rejected_with_accepted_list() {
        // A misspelling is an error, not a silently ignored option.
        let err = parse(&["simulate", "--frmes", "10"]).unwrap_err();
        assert!(matches!(err, ArgError::UnknownOption { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("--frmes"), "{msg}");
        assert!(msg.contains("--frames"), "{msg}");
        // A name the table does not know as a flag is still rejected
        // before any value is consumed.
        let err = parse(&["simulate", "--hard", "--frames", "10"]).unwrap_err();
        assert!(matches!(err, ArgError::UnknownOption { .. }), "{err}");
        // Another command's option names that command.
        let msg = parse(&["simulate", "--ebn0s", "3,4"])
            .unwrap_err()
            .to_string();
        assert!(msg.contains("an option of sweep"), "{msg}");
        let msg = parse(&["info", "--frames", "3"]).unwrap_err().to_string();
        assert!(msg.contains("takes no options"), "{msg}");
        // Help is accepted everywhere; an unlisted command is left to the
        // dispatcher.
        assert!(parse(&["info", "--help"]).unwrap().flag("help"));
        assert_eq!(
            parse(&["frobnicate", "--x", "1"]).unwrap().get("x"),
            Some("1")
        );
    }

    #[test]
    fn errors_display_cleanly() {
        for e in [
            ArgError::MissingCommand,
            ArgError::MissingValue("x".into()),
            ArgError::InvalidValue {
                option: "x".into(),
                value: "y".into(),
            },
            ArgError::UnexpectedPositional("z".into()),
            ArgError::UnknownOption {
                command: "c".into(),
                option: "o".into(),
                accepted: &["a"],
                elsewhere: vec![],
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
