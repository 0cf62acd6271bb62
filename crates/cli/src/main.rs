//! `qlec-sim` binary entry point.

use qlec_cli::args::ParsedArgs;
use qlec_cli::commands;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match ParsedArgs::parse(raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    match commands::dispatch(&parsed) {
        Ok(out) if commands::stdout_is_event_stream(&parsed) => eprint!("{out}"),
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
