//! Report output for the workspace's binaries (`bricks`, `experiments`).
//! [`out!`](crate::out) and [`outln!`](crate::outln) are `print!` and
//! `println!` through [`emit`]: a reader that closes the pipe early
//! (`bricks lint | head`, `experiments --listings | head -1`) ends the
//! program quietly with exit 0 instead of the panic `print!` raises on a
//! failed write.

use std::io::{ErrorKind, Write};

/// `print!` through [`emit`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout::emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::stdout::emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write to stdout. A closed pipe exits 0, as a producer piped into
/// `head` should; any other write error exits 1 with the reason.
pub fn emit(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}
