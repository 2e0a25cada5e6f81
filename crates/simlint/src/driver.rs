//! The lint driver behind `apples-cli lint`: flag parsing, workspace
//! scan, rendering, exit code.

use std::fmt::Write as _;
use std::io::{ErrorKind, Write as _};
use std::path::Path;

use crate::{Lint, Report};

/// Output format for [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Text,
    Json,
    Github,
}

pub const USAGE: &str =
    "usage: apples-cli lint [--format text|json|github] [--deny <lint>] [PATH ...]";

/// Parse args and run the lint driver. Returns the process exit code:
/// 0 when clean (every finding allowed and no denied lints hit), 1 when
/// any unallowed finding remains or a `--deny`-ed lint fired (allowed
/// or not), 2 on usage or I/O errors. Output goes to stdout, errors to
/// stderr.
pub fn run<I: Iterator<Item = String>>(mut args: I) -> u8 {
    let mut format = Format::Text;
    let mut deny: Vec<Lint> = Vec::new();
    let mut roots: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!(
                        "simlint: --format expects `text`, `json` or `github`, got {:?}",
                        other.unwrap_or("<missing>")
                    );
                    return 2;
                }
            },
            "--deny" => match args.next().as_deref().and_then(Lint::from_name) {
                Some(lint) => deny.push(lint),
                None => {
                    eprintln!("simlint: --deny expects a known lint name");
                    return 2;
                }
            },
            "--help" | "-h" => {
                return match emit(&help_text()) {
                    Ok(()) => 0,
                    Err(e) => {
                        eprintln!("simlint: writing the help text: {e}");
                        2
                    }
                };
            }
            flag if flag.starts_with('-') => {
                eprintln!("simlint: unknown flag {flag}");
                eprintln!("{USAGE}");
                return 2;
            }
            path => roots.push(path.to_owned()),
        }
    }
    if roots.is_empty() {
        roots.push(".".to_owned());
    }

    let mut report = Report::default();
    for root in &roots {
        match crate::lint_workspace(Path::new(root)) {
            Ok(r) => {
                report.findings.extend(r.findings);
                report.files_scanned += r.files_scanned;
            }
            Err(e) => {
                eprintln!("simlint: failed to scan {root}: {e}");
                return 2;
            }
        }
    }

    let rendered = match format {
        Format::Text => report.render_text(),
        Format::Json => report.render_json(),
        Format::Github => report.render_github(),
    };
    if let Err(e) = emit(&rendered) {
        eprintln!("simlint: writing the report: {e}");
        return 2;
    }

    let denied = report
        .findings
        .iter()
        .filter(|f| deny.contains(&f.lint))
        .count();
    if denied > 0 {
        eprintln!("simlint: {denied} finding(s) of denied lint(s)");
    }
    if report.unallowed_count() > 0 || denied > 0 {
        1
    } else {
        0
    }
}

/// The `--help` text: usage plus one line per lint.
fn help_text() -> String {
    let mut text = format!("{USAGE}\n\nLints (see DESIGN.md for the policy table):\n");
    let extra = [Lint::MalformedAllow, Lint::StaleAllow];
    for lint in crate::ALL_LINTS.iter().chain(extra.iter()) {
        let _ = writeln!(text, "  {:<20} {}", lint.name(), lint.hint());
    }
    text.push_str("\n--deny <lint>: exit 1 if <lint> fired at all, even allowed.\n");
    text
}

/// Write `text` to stdout. A reader that hung up (EPIPE, as in
/// `simlint | head`) is not an error: the exit code still reports the
/// findings.
fn emit(text: &str) -> std::io::Result<()> {
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(e),
        _ => Ok(()),
    }
}
