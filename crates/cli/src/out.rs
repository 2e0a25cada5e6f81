//! Command output on stdout.
//!
//! `println!` panics when stdout is closed, so `apples-cli grid --csv |
//! head -1` used to die with exit 101 once `head` stopped reading.
//! Commands print through `out!` and `outln!` instead: a reader that hung up (EPIPE) ends
//! the process with exit 0, as it would a C tool killed by SIGPIPE;
//! any other write error exits 1.

use std::io::{ErrorKind, Write};

/// Write formatted output to stdout, ending the process if it fails.
pub fn write(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` for command output; see the module docs.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` for command output; see the module docs.
macro_rules! outln {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
