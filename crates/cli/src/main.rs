//! `pddl` — command-line tool for PDDL declustered disk arrays.
//!
//! ```text
//! pddl show      --disks 13 --width 4 [--layout pddl] [--rows 13]
//! pddl verify    --disks 13 --width 4 [--layout raid5]
//! pddl search    --disks 10 --width 3 [--spares 1] [--moves 100000]
//! pddl simulate  --disks 13 --width 4 --clients 8 --size 6 [--op write] [--mode f1]
//! pddl rebuild   --disks 13 --width 4 --clients 8 [--jobs 16]
//! pddl drill     --disks 13 --width 4 [--fail 5]
//! pddl serve     --disks 13 --width 4 --addr 127.0.0.1:7490 [--metrics-addr 127.0.0.1:9490]
//! pddl stats     --addr 127.0.0.1:7490
//! pddl volume    list|create|delete|resize --addr 127.0.0.1:7490
//! pddl top       --addr 127.0.0.1:7490 [--interval-ms 1000] [--iters 0] [--volume 1]
//! pddl trace-dump --addr 127.0.0.1:7490 [--out trace.json]
//! pddl chaos     --seeds 20 --ops 2000
//! ```

mod args;
mod commands;

use args::Cli;

fn main() {
    let cli = Cli::from_env();
    let result = match cli.command.as_deref() {
        Some("show") => commands::show(&cli),
        Some("verify") => commands::verify(&cli),
        Some("search") => commands::search(&cli),
        Some("simulate") => commands::simulate(&cli),
        Some("rebuild") => commands::rebuild(&cli),
        Some("drill") => commands::drill(&cli),
        Some("trace-gen") => commands::trace_gen(&cli),
        Some("replay") => commands::replay(&cli),
        Some("report") => commands::report(&cli),
        Some("serve") => commands::serve_cmd(&cli),
        Some("stats") => commands::stats(&cli),
        Some("volume") => commands::volume(&cli),
        Some("top") => commands::top(&cli),
        Some("trace-dump") => commands::trace_dump(&cli),
        // The chaos harness owns its flag set (it doubles as the
        // standalone `pddl-chaos` binary), so forward the raw args.
        Some("chaos") => {
            let raw: Vec<String> = std::env::args().skip(2).collect();
            std::process::exit(pddl_chaos::run_cli(&raw));
        }
        Some("help") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{}", commands::USAGE)),
    };
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
