//! The `gem` binary: thin wrapper over [`gem_cli::run`].
//!
//! Exit status: 0 when the command succeeded and found nothing, 1 when
//! `verify` judged the program to fail its specification or `deadlock`
//! found a deadlock, 2 on a usage or I/O error.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match gem_cli::run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = if out.found {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    };
    let mut stdout = io::stdout().lock();
    match writeln!(stdout, "{}", out.stdout).and_then(|()| stdout.flush()) {
        Ok(()) => verdict,
        // The reader went away (`gem … | head`): nothing left to tell it.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => verdict,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::from(2)
        }
    }
}
