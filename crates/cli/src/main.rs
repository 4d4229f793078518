//! The `gem` binary: thin wrapper over [`gem_cli::run`].

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
    let mut stdout = io::stdout().lock();
    match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`gem … | head`): nothing left to tell it.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::from(2)
        }
    }
}
