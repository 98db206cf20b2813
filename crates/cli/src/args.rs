//! The one argument parser behind the `dsspy` and `repro` binaries.
//!
//! A binary declares its interface as a table of [`Command`] rows, and the
//! usage text is printed from the same rows. Arguments the row they name
//! does not declare — a flag the mode does not use, a missing or extra
//! positional, a repeated flag, a value that does not parse — print usage
//! naming the argument and the command, and exit 2 before any work.
//! [`emit`] is the one stdout writer both binaries print through, and
//! [`note`] the one stderr writer.

use std::fmt::Display;
use std::io::{ErrorKind, Write};
use std::str::FromStr;

/// One command's interface: a row of a binary's argument table.
#[derive(Debug)]
pub struct Command {
    /// The words that name the command. A plain word must stand in order
    /// at the start of the arguments; a `--word` selects a mode and may
    /// stand anywhere (`["watch", "--follow"]`, `["telemetry", "serve"]`).
    pub words: &'static [&'static str],
    /// The positional arguments by name, all required.
    pub positionals: &'static [&'static str],
    /// The flags: one that takes a value is given with the value's name
    /// (`"--threads N"`), one that stands alone without (`"--json"`). A
    /// value name in angle brackets makes the flag required
    /// (`"--out <report.html>"`).
    pub flags: &'static [&'static str],
    /// What the command does, in one line.
    pub help: &'static str,
}

impl Command {
    /// Whether `argv` names this row: its plain words lead, in order, and
    /// each of its mode words stands somewhere.
    fn names(&self, argv: &[String]) -> bool {
        let mut plain = argv.iter();
        self.words.iter().all(|w| {
            if w.starts_with("--") {
                argv.iter().any(|a| a == w)
            } else {
                plain.next().is_some_and(|a| a == w)
            }
        })
    }
}

/// The usage text of the binary `bin`: each row's interface, then its help.
pub fn usage(bin: &str, rows: &[Command]) -> String {
    let mut out = String::from("usage:");
    for row in rows {
        out.push_str(&format!("\n  {bin}"));
        for word in row.words.iter().chain(row.positionals) {
            out.push_str(&format!(" {word}"));
        }
        for flag in row.flags {
            if flag.contains(" <") {
                out.push_str(&format!(" {flag}"));
            } else {
                out.push_str(&format!(" [{flag}]"));
            }
        }
        out.push_str(&format!("\n      {}", row.help));
    }
    out
}

/// Arguments checked against the row they name.
#[derive(Debug)]
pub struct Args {
    /// The row the arguments name.
    pub command: &'static Command,
    /// The binary and the words of its command, as messages name them.
    name: String,
    usage: String,
    positionals: Vec<String>,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

/// Parse `argv` against `rows` ([`parse`]); on any mismatch print the
/// reason and the usage, and exit 2.
pub fn parse_or_exit(bin: &str, rows: &'static [Command], argv: Vec<String>) -> Args {
    parse(bin, rows, argv).unwrap_or_else(|e| {
        note(format_args!("{e}\n{}", usage(bin, rows)));
        std::process::exit(2)
    })
}

/// Parse `argv` (without the program name) against `rows`: pick the row
/// with the most words among those `argv` names, then check every
/// argument against it. The error names the argument and the command.
pub fn parse(bin: &str, rows: &'static [Command], argv: Vec<String>) -> Result<Args, String> {
    let command = rows
        .iter()
        .filter(|row| row.names(&argv))
        .max_by_key(|row| row.words.len())
        .ok_or_else(|| match argv.first() {
            Some(word) => format!("{bin}: unknown command {word:?}"),
            None => format!("{bin}: missing command"),
        })?;
    let name = std::iter::once(bin)
        .chain(command.words.iter().copied())
        .collect::<Vec<_>>()
        .join(" ");
    let mut args = Args {
        command,
        usage: usage(bin, rows),
        name: name.clone(),
        positionals: Vec::new(),
        values: Vec::new(),
        switches: Vec::new(),
    };
    let plain = command.words.iter().filter(|w| !w.starts_with("--"));
    let mut rest = argv.into_iter().skip(plain.count());
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            args.positionals.push(arg);
            continue;
        }
        let mut declared = command.words.iter().chain(command.flags);
        let Some(flag) = declared.find(|f| f.split(' ').next() == Some(arg.as_str())) else {
            return Err(format!("{name} does not take {arg}"));
        };
        let (flag, placeholder) = flag.split_once(' ').unwrap_or((flag, ""));
        if args.value(flag).is_some() || args.switch(flag) {
            return Err(format!("{name}: {flag} given twice"));
        }
        if placeholder.is_empty() {
            args.switches.push(flag);
            continue;
        }
        match rest.next().filter(|v| !v.starts_with("--")) {
            Some(v) => args.values.push((flag, v)),
            None => return Err(format!("{name}: {flag} needs a value {placeholder}")),
        }
    }
    if let Some(extra) = args.positionals.get(command.positionals.len()) {
        return Err(format!("{name}: unexpected argument {extra:?}"));
    }
    if let Some(missing) = command.positionals.get(args.positionals.len()) {
        return Err(format!("{name}: missing {missing}"));
    }
    let mut required = command.flags.iter().filter_map(|f| f.split_once(" <"));
    match required.find(|(flag, _)| args.value(flag).is_none()) {
        Some((flag, placeholder)) => Err(format!("{name}: missing {flag} <{placeholder}")),
        None => Ok(args),
    }
}

impl Args {
    /// Positional `i`; [`parse`] checked the row's count.
    pub fn positional(&self, i: usize) -> &str {
        &self.positionals[i]
    }

    /// The value given to `flag`, if it was.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let given = self.values.iter().find(|(f, _)| *f == flag);
        given.map(|(_, v)| v.as_str())
    }

    /// The value given to `flag` parsed as a `T`, if it was given; a value
    /// that does not parse is rejected ([`Args::fail`]).
    pub fn parse<T: FromStr>(&self, flag: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let raw = self.value(flag)?;
        let parsed = raw.parse();
        Some(parsed.unwrap_or_else(|e| self.fail(format!("{flag} {raw:?}: {e}"))))
    }

    /// Whether the stand-alone flag or mode word `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// Reject the arguments: print `message` after the command's name,
    /// then the usage, and exit 2.
    pub fn fail(&self, message: impl Display) -> ! {
        note(format_args!("{}: {message}\n{}", self.name, self.usage));
        std::process::exit(2)
    }
}

/// Write `out` and a newline to stdout for the binary `bin`. A reader that
/// stops early (`dsspy analyze c.dsspycap --json | head`, `repro --all |
/// head`) closes the pipe: that ends the output quietly, and `false` tells
/// the caller to stop, with no panic and nothing on stderr. Any other write
/// failure is an error: exit 1.
pub fn emit(bin: &str, out: &str) -> bool {
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => false,
        Err(e) => {
            note(format_args!("{bin}: cannot write output: {e}"));
            std::process::exit(1)
        }
    }
}

/// Write `message` and a newline to stderr. A closed or failing stderr
/// (`dsspy analyze 2>&1 | head -c 0`) loses the message but never panics,
/// as `eprintln!` would with exit 101, so the caller's own exit code
/// stands.
pub fn note(message: impl Display) {
    let _ = writeln!(std::io::stderr().lock(), "{message}");
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: &[Command] = &[
        Command {
            words: &["watch"],
            positionals: &["<capture>"],
            flags: &["--frames N"],
            help: "replay",
        },
        Command {
            words: &["watch", "--follow"],
            positionals: &[],
            flags: &["--frames N"],
            help: "follow",
        },
        Command {
            words: &["report"],
            positionals: &["<capture>"],
            flags: &["--out <report.html>", "--json"],
            help: "report",
        },
    ];

    fn run(argv: &[&str]) -> Result<Args, String> {
        parse("t", ROWS, argv.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn a_mode_word_selects_its_row_wherever_it_stands() {
        let args = run(&["watch", "--frames", "3", "--follow"]).unwrap();
        assert_eq!(args.command.words, ["watch", "--follow"]);
        assert_eq!(args.parse::<usize>("--frames"), Some(3));
        assert!(args.switch("--follow"));
        let args = run(&["watch", "c.cap"]).unwrap();
        assert_eq!(args.command.words, ["watch"]);
        assert_eq!(args.positional(0), "c.cap");
    }

    #[test]
    fn every_mismatch_names_the_argument_and_the_command() {
        for (argv, want) in [
            (
                &["watch", "c.cap", "--follow"][..],
                "t watch --follow: unexpected argument \"c.cap\"",
            ),
            (&["watch"], "t watch: missing <capture>"),
            (
                &["watch", "c.cap", "--json"],
                "t watch does not take --json",
            ),
            (
                &["watch", "c.cap", "--frames"],
                "t watch: --frames needs a value N",
            ),
            (
                &["watch", "c.cap", "--frames", "--json"],
                "t watch: --frames needs a value N",
            ),
            (
                &["report", "c.cap"],
                "t report: missing --out <report.html>",
            ),
            (
                &["report", "c.cap", "--out", "a", "--out", "b"],
                "t report: --out given twice",
            ),
            (
                &["report", "c.cap", "--json", "--json", "--out", "a"],
                "t report: --json given twice",
            ),
            (&["nope"], "t: unknown command \"nope\""),
            (&[], "t: missing command"),
        ] {
            assert_eq!(run(argv).unwrap_err(), want, "{argv:?}");
        }
    }

    #[test]
    fn usage_prints_every_row_from_the_table() {
        let text = usage("t", ROWS);
        assert!(
            text.contains("t watch --follow [--frames N]\n      follow"),
            "{text}"
        );
        assert!(
            text.contains("t report <capture> --out <report.html> [--json]"),
            "{text}"
        );
    }
}
