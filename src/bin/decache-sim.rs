//! `decache-sim` — a small CLI front end for the simulator: pick a
//! protocol, a workload, and a machine shape; get cycles, traffic, and
//! hit ratios. Memory is sized from the workload's footprint.
//!
//! ```text
//! decache-sim [--protocol rb|rb-nb|rwb|rwb:K|write-once|write-through|mesi]
//!             [--workload mix|array|lock|barrier]
//!             [--pes N] [--buses B] [--ops N] [--cache-lines N]
//! ```

use decache::core::{ir::MAX_K, ProtocolKind};
use decache::machine::{MachineBuilder, MAX_BUSES, MAX_PES};
use decache::mem::{Addr, AddrRange};
use decache::sync::{BarrierWorker, LockWorker, Primitive};
use decache::workloads::{ArrayInit, MixConfig, MixWorkload};
use std::process::ExitCode;

/// The least memory a machine gets, in words, whatever its workload
/// touches.
const MIN_MEMORY_WORDS: u64 = 1 << 15;
/// The most memory a run may ask for, in words (256 MiB): room for the
/// mix workload's private regions on `MAX_PES` processors.
const MAX_MEMORY_WORDS: u64 = 1 << 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Mix,
    Array,
    Lock,
    Barrier,
}

#[derive(Debug)]
struct Options {
    protocol: ProtocolKind,
    workload: Workload,
    pes: usize,
    buses: usize,
    ops: u64,
    cache_lines: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            protocol: ProtocolKind::Rwb,
            workload: Workload::Mix,
            pes: 8,
            buses: 1,
            ops: 2_000,
            cache_lines: 256,
        }
    }
}

fn parse_protocol(raw: &str) -> Result<ProtocolKind, String> {
    match raw {
        "rb" => Ok(ProtocolKind::Rb),
        "rb-nb" => Ok(ProtocolKind::RbNoBroadcast),
        "rwb" => Ok(ProtocolKind::Rwb),
        "write-once" => Ok(ProtocolKind::WriteOnce),
        "write-through" => Ok(ProtocolKind::WriteThrough),
        "mesi" => Ok(ProtocolKind::Mesi),
        other => {
            if let Some(k) = other.strip_prefix("rwb:") {
                let k: u8 = k
                    .parse()
                    .map_err(|_| format!("bad rwb threshold: {other}"))?;
                if !(1..=MAX_K).contains(&k) {
                    return Err(format!(
                        "rwb threshold out of range: {other} (k must be 1..={MAX_K})"
                    ));
                }
                Ok(ProtocolKind::RwbThreshold(k))
            } else {
                Err(format!("unknown protocol: {other}"))
            }
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--protocol" => options.protocol = parse_protocol(value()?)?,
            "--workload" => {
                options.workload = match value()? {
                    "mix" => Workload::Mix,
                    "array" => Workload::Array,
                    "lock" => Workload::Lock,
                    "barrier" => Workload::Barrier,
                    other => return Err(format!("unknown workload: {other}")),
                }
            }
            "--pes" => {
                options.pes = value()?.parse().map_err(|e| format!("bad --pes: {e}"))?;
            }
            "--buses" => {
                options.buses = value()?.parse().map_err(|e| format!("bad --buses: {e}"))?;
            }
            "--ops" => {
                options.ops = value()?.parse().map_err(|e| format!("bad --ops: {e}"))?;
            }
            "--cache-lines" => {
                options.cache_lines = value()?
                    .parse()
                    .map_err(|e| format!("bad --cache-lines: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: decache-sim [--protocol P] [--workload W] [--pes N] \
                            [--buses B] [--ops N] [--cache-lines N]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    // The builder asserts these shapes; a usage error is the place to
    // turn them away.
    if !(1..=MAX_PES).contains(&options.pes) {
        return Err(format!(
            "--pes must be in 1..={MAX_PES}, not {}",
            options.pes
        ));
    }
    if !options.buses.is_power_of_two() || options.buses > MAX_BUSES {
        return Err(format!(
            "--buses must be a power of two in 1..={MAX_BUSES}, not {}",
            options.buses
        ));
    }
    if !options.cache_lines.is_power_of_two() {
        return Err(format!(
            "--cache-lines must be a nonzero power of two, not {}",
            options.cache_lines
        ));
    }
    Ok(options)
}

/// The memory a run needs, in words: the workload's footprint, at least
/// [`MIN_MEMORY_WORDS`], rounded up to a whole word per bus. A footprint
/// above [`MAX_MEMORY_WORDS`] is a usage error, found before anything
/// is allocated.
fn memory_words(options: &Options) -> Result<u64, String> {
    let pes = options.pes as u64;
    let (flag, value, footprint) = match options.workload {
        Workload::Mix => ("--pes", pes, MixWorkload::private_end(pes)),
        Workload::Array => ("--ops", options.ops, options.ops),
        // The lock word, then one critical-section word per PE from 1024.
        Workload::Lock => ("--pes", pes, 1024 + pes + 8),
        // The barrier's lock, counter and generation words.
        Workload::Barrier => ("--pes", pes, 3),
    };
    if footprint > MAX_MEMORY_WORDS {
        return Err(format!(
            "{flag} {value} needs {footprint} memory words, more than the \
             {MAX_MEMORY_WORDS}-word cap"
        ));
    }
    Ok(footprint
        .max(MIN_MEMORY_WORDS)
        .next_multiple_of(options.buses as u64))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args(&args).and_then(|o| Ok((memory_words(&o)?, o)));
    let (memory_words, options) = match parsed {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let mut builder = MachineBuilder::new(options.protocol);
    builder
        .memory_words(memory_words)
        .cache_lines(options.cache_lines)
        .buses(options.buses);

    match options.workload {
        Workload::Mix => {
            let shared = AddrRange::with_len(Addr::new(0), 64);
            let config = MixConfig {
                ops_per_pe: options.ops,
                ..MixConfig::default()
            };
            builder.processors(options.pes, |pe| {
                Box::new(MixWorkload::new(config, shared, pe as u64))
            });
        }
        Workload::Array => {
            let array = AddrRange::with_len(Addr::new(0), options.ops);
            builder.processor(Box::new(ArrayInit::new(array)));
        }
        Workload::Lock => {
            let rounds = options.ops.max(1);
            builder.processors(options.pes, |pe| {
                Box::new(
                    LockWorker::new(Addr::new(0), Primitive::TestAndTestAndSet)
                        .rounds(rounds)
                        .critical_section(Addr::new(1024 + pe as u64), 8),
                )
            });
        }
        Workload::Barrier => {
            let pes = options.pes as u64;
            let episodes = options.ops.max(1);
            builder.processors(options.pes, |_| {
                Box::new(BarrierWorker::new(Addr::new(0), pes, episodes))
            });
        }
    }

    let mut machine = builder.build();
    let cycles = machine.run_to_completion(10_000_000_000);

    println!("protocol:      {}", machine.protocol().table().name);
    println!("processors:    {}", machine.pe_count());
    println!("topology:      {}", machine.routing());
    println!("cycles:        {cycles}");
    println!("bus traffic:   {}", machine.traffic());
    println!("cache stats:   {}", machine.total_cache_stats());
    println!("machine stats: {}", machine.stats());
    if options.buses > 1 {
        let per_bus = machine.traffic_per_bus();
        for bus in 0..per_bus.bus_count() {
            println!("  bus {bus}: {}", per_bus.bus(bus));
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn defaults_apply_with_no_flags() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.protocol, ProtocolKind::Rwb);
        assert_eq!(o.workload, Workload::Mix);
        assert_eq!(o.pes, 8);
        assert_eq!(o.buses, 1);
    }

    #[test]
    fn all_flags_parse() {
        let o = parse_args(&args(&[
            "--protocol",
            "rb",
            "--workload",
            "lock",
            "--pes",
            "4",
            "--buses",
            "2",
            "--ops",
            "100",
            "--cache-lines",
            "64",
        ]))
        .unwrap();
        assert_eq!(o.protocol, ProtocolKind::Rb);
        assert_eq!(o.workload, Workload::Lock);
        assert_eq!(o.pes, 4);
        assert_eq!(o.buses, 2);
        assert_eq!(o.ops, 100);
        assert_eq!(o.cache_lines, 64);
    }

    #[test]
    fn protocol_spellings() {
        assert_eq!(
            parse_protocol("rb-nb").unwrap(),
            ProtocolKind::RbNoBroadcast
        );
        assert_eq!(
            parse_protocol("rwb:3").unwrap(),
            ProtocolKind::RwbThreshold(3)
        );
        assert_eq!(
            parse_protocol("write-once").unwrap(),
            ProtocolKind::WriteOnce
        );
        assert_eq!(parse_protocol("mesi").unwrap(), ProtocolKind::Mesi);
        assert!(parse_protocol("moesi").is_err());
        assert!(parse_protocol("rwb:x").is_err());
        assert_eq!(
            parse_protocol("rwb:8").unwrap(),
            ProtocolKind::RwbThreshold(8)
        );
        for k in ["rwb:0", "rwb:9", "rwb:255"] {
            let err = parse_protocol(k).unwrap_err();
            assert!(err.contains("out of range"), "{k}: {err}");
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_args(&args(&["--pes"])).is_err());
        assert!(parse_args(&args(&["--pes", "0"])).is_err());
        assert!(parse_args(&args(&["--workload", "nonsense"])).is_err());
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        assert!(parse_args(&args(&["--help"])).is_err());
    }

    #[test]
    fn memory_covers_the_workload_footprint() {
        let words = |raw: &[&str]| memory_words(&parse_args(&args(raw)).unwrap());
        assert_eq!(words(&[]), Ok(MIN_MEMORY_WORDS));
        assert_eq!(words(&["--pes", "200"]), Ok(MixWorkload::private_end(200)));
        assert_eq!(
            words(&["--workload", "array", "--ops", "100001", "--buses", "4"]),
            Ok(100_004)
        );
        assert_eq!(words(&["--workload", "lock", "--pes", "40000"]), Ok(41_032));
        assert!(words(&["--pes", "65536"]).is_ok());
        let err = words(&["--workload", "array", "--ops", "33554433"]).unwrap_err();
        assert!(err.starts_with("--ops 33554433"), "{err}");
    }

    #[test]
    fn shapes_the_builder_would_reject_are_usage_errors() {
        assert!(parse_args(&args(&["--pes", "65536"])).is_ok());
        for bad in [
            &["--pes", "65537"][..],
            &["--pes", "70000"],
            &["--buses", "0"],
            &["--buses", "3"],
            &["--buses", "512"],
            &["--cache-lines", "0"],
            &["--cache-lines", "100"],
        ] {
            let err = parse_args(&args(bad)).unwrap_err();
            assert!(err.starts_with(bad[0]), "{bad:?}: {err}");
        }
    }
}
