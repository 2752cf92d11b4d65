//! Checkpointed fast-forward for sampled trace-processor simulation.
//!
//! The detailed cycle model in `tp-core` simulates a few hundred thousand
//! instructions per second; the functional machine in `tp-isa` runs orders
//! of magnitude faster. This crate connects them into a *sampled
//! simulation* pipeline:
//!
//! 1. [`FastForward`] executes the program functionally with **functional
//!    warming**: branch outcomes train the BTB/gshare, calls and returns
//!    walk the RAS, and the committed stream is cut into canonical traces
//!    (using the detailed frontend's own [`Selector`](tp_trace::Selector))
//!    that fill the trace cache and train the next-trace predictor.
//! 2. [`Checkpoint`] freezes the architectural state (PC, registers, a
//!    dirty-page memory delta) plus the warmed predictor images into a
//!    compact versioned binary format, and rebuilds a
//!    [`BootImage`](tp_core::BootImage) from it.
//! 3. [`tp_core::TraceProcessor::from_checkpoint`] boots the detailed
//!    model at the checkpoint for a measurement interval; its trained
//!    structures and architectural frontier then flow back into the next
//!    fast-forward leg ([`FastForward::adopt`]), so warming is continuous
//!    across the whole run.
//!
//! The sampled *runner* that alternates these legs and aggregates
//! per-interval IPC with error bounds lives in `tp-bench`
//! (`tp_bench::sampled`); `tp ckpt` creates, inspects, and
//! verifies checkpoint files.

pub mod checkpoint;
pub mod ffwd;
pub mod wire;

pub use checkpoint::{program_fingerprint, Checkpoint, CkptError, TraceLine, WarmImages};
pub use ffwd::{EngineStats, FastForward, SkipSummary, Warm};
pub use wire::WireError;

#[cfg(test)]
mod tests {
    use super::*;
    use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
    use tp_isa::func::Machine;
    use tp_isa::Program;
    use tp_workloads::{by_name, Size};

    fn mem_digest(m: &Machine<'_>) -> u64 {
        let st = m.arch_state();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (a, w) in &st.mem {
            for b in a.to_le_bytes().into_iter().chain((*w as u64).to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    /// The round-trip law: fast-forward `n`, checkpoint through bytes,
    /// resume, run `m` more — equals a straight functional run of `n + m`
    /// (PC, registers, memory digest, retirement count). Checked across a
    /// grid of programs and split points, proptest-style.
    #[test]
    fn roundtrip_equals_straight_run() {
        let programs: Vec<(&str, Program)> = vec![
            ("compress", by_name("compress", Size::Tiny).unwrap().program),
            ("gcc", by_name("gcc", Size::Tiny).unwrap().program),
            ("li", by_name("li", Size::Tiny).unwrap().program),
            ("synth", tp_isa::synth::generate(&tp_isa::synth::SynthConfig::small(), 11)),
        ];
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        for (name, p) in &programs {
            for split in [1u64, 63, 500, 1777] {
                let mut ff = FastForward::new(p, &cfg);
                ff.skip(split).unwrap();
                let n = ff.retired();
                let bytes = ff.checkpoint().encode();
                let ckpt = Checkpoint::decode(&bytes).unwrap();
                assert_eq!(ckpt.retired, n, "{name} split {split}");
                let mut resumed = ckpt.machine(p).unwrap();
                resumed.run(1000).unwrap();

                let mut straight = Machine::new(p);
                straight.run(resumed.retired()).unwrap();
                assert_eq!(resumed.pc(), straight.pc(), "{name} split {split}: pc");
                assert_eq!(
                    resumed.arch_state().regs,
                    straight.arch_state().regs,
                    "{name} split {split}: registers"
                );
                assert_eq!(
                    mem_digest(&resumed),
                    mem_digest(&straight),
                    "{name} split {split}: memory digest"
                );
                assert_eq!(resumed.retired(), straight.retired(), "{name} split {split}");
            }
        }
    }

    /// The incremental dirty-page capture ([`Checkpoint::capture_machine`],
    /// what [`FastForward::checkpoint`] uses) equals the full-rescan
    /// capture byte for byte — at every split point, and across a
    /// `from_state` resume boundary (where resumed-but-unchanged words
    /// must not re-enter the delta).
    #[test]
    fn incremental_capture_equals_full_rescan() {
        let w = by_name("vortex", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet);
        let mut ff = FastForward::new(&w, &cfg);
        for split in [1u64, 63, 500, 1777] {
            ff.skip(split).unwrap();
            let fast = ff.checkpoint();
            let slow =
                Checkpoint::capture(&w, ff.frontend(), &ff.machine().capture(), Some(ff.warm()));
            assert_eq!(fast, slow, "split {split}");
            assert_eq!(fast.encode(), slow.encode(), "split {split}");
        }
        // Resume from a captured state and keep running both drivers in
        // lockstep: the rebuilt machine's stored-word classification must
        // keep its deltas identical to the continuously tracked one's.
        let mut resumed = FastForward::with_warm(&w, ff.machine().capture(), ff.warm().clone());
        resumed.skip(500).unwrap();
        ff.skip(500).unwrap();
        assert_eq!(resumed.checkpoint().encode(), ff.checkpoint().encode());
    }

    /// Encode/decode is the identity on the checkpoint value, including
    /// every warm image.
    #[test]
    fn encode_decode_is_identity() {
        let w = by_name("go", Size::Tiny).unwrap().program;
        for model in [CiModel::None, CiModel::MlbRet, CiModel::FgMlbRet] {
            let cfg = TraceProcessorConfig::paper(model);
            let mut ff = FastForward::new(&w, &cfg);
            ff.skip(800).unwrap();
            let ckpt = ff.checkpoint();
            assert!(ckpt.warm.is_some());
            let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
            assert_eq!(decoded, ckpt, "{model:?}");
        }
    }

    /// The warm trace-cache image rebuilds bit-exactly: every line
    /// re-selected from the program matches the trace that was cached
    /// during warming (id, instruction sequence, renames, end metadata).
    #[test]
    fn warm_traces_rebuild_exactly() {
        let w = by_name("jpeg", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet);
        let mut ff = FastForward::new(&w, &cfg);
        ff.skip(u64::MAX).unwrap();
        let live: Vec<_> = ff.warm().tcache.lines_lru();
        assert!(!live.is_empty());
        let ckpt = ff.checkpoint();
        let boot = ckpt.boot_image(&w, &cfg).unwrap();
        let warm = boot.warm.expect("warm state present");
        let rebuilt = warm.tcache.lines_lru();
        assert_eq!(rebuilt.len(), live.len());
        for (a, b) in live.iter().zip(&rebuilt) {
            assert_eq!(**a, **b, "trace {} did not rebuild identically", a.id());
        }
    }

    /// A detailed interval booted from a checkpoint commits exactly the
    /// functional machine's architectural state (oracle-verified run).
    #[test]
    fn detailed_interval_from_checkpoint_is_oracle_exact() {
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet).with_oracle();
        let mut ff = FastForward::new(&w, &cfg);
        ff.skip(1200).unwrap();
        assert!(!ff.halted());
        let ckpt = Checkpoint::decode(&ff.checkpoint().encode()).unwrap();
        let boot = ckpt.boot_image(&w, &cfg).unwrap();
        let mut sim = TraceProcessor::from_checkpoint(&w, cfg, boot).unwrap();
        let r = sim.run_interval(1000).unwrap();
        assert!(r.stats.retired_instrs >= 1000 || r.halted);
        // The oracle inside the run already verified every retired
        // instruction; additionally check the final frontier.
        let (pc, retired) = sim.retired_frontier();
        let mut straight = Machine::new(&w);
        straight.run(ckpt.retired + retired).unwrap();
        assert_eq!(pc, straight.pc());
        assert_eq!(sim.arch_state(), straight.arch_state());
    }

    /// Checkpoints refuse to boot against a different program.
    #[test]
    fn program_mismatch_is_rejected() {
        let a = by_name("compress", Size::Tiny).unwrap().program;
        let b = by_name("li", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let mut ff = FastForward::new(&a, &cfg);
        ff.skip(100).unwrap();
        let ckpt = ff.checkpoint();
        assert!(matches!(ckpt.machine(&b), Err(CkptError::ProgramMismatch { .. })));
        assert!(matches!(ckpt.boot_image(&b, &cfg), Err(CkptError::ProgramMismatch { .. })));
    }

    /// A selection mismatch between checkpoint and boot config is caught.
    #[test]
    fn selection_mismatch_is_rejected() {
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let warm_cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let mut ff = FastForward::new(&w, &warm_cfg);
        ff.skip(100).unwrap();
        let ckpt = ff.checkpoint();
        let other = TraceProcessorConfig::paper(CiModel::None);
        assert!(matches!(ckpt.boot_image(&w, &other), Err(CkptError::SelectionMismatch { .. })));
    }

    /// The frontend kind round-trips through the wire format, and a
    /// frontend mismatch is reported by name.
    #[test]
    fn frontend_kind_roundtrips_and_mismatch_is_named() {
        use tp_isa::Frontend;
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let mut ff = FastForward::new(&w, &cfg);
        ff.set_frontend(Frontend::Rv64);
        assert_eq!(ff.frontend(), Frontend::Rv64);
        ff.skip(50).unwrap();
        let ckpt = Checkpoint::decode(&ff.checkpoint().encode()).unwrap();
        assert_eq!(ckpt.frontend, Frontend::Rv64);
        assert!(ckpt.verify_frontend(Frontend::Rv64).is_ok());
        let err = ckpt.verify_frontend(Frontend::Synth).unwrap_err();
        assert!(matches!(
            err,
            CkptError::FrontendMismatch { stored: Frontend::Rv64, offered: Frontend::Synth, .. }
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("rv64") && msg.contains("synth") && msg.contains("wrong ISA"),
            "{msg}"
        );
    }

    /// A version-1 stream (no frontend byte) still decodes, defaulting the
    /// frontend to synth — the only frontend that existed when v1 streams
    /// were written.
    #[test]
    fn version_1_streams_decode_as_synth() {
        use tp_isa::Frontend;
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let mut ff = FastForward::new(&w, &cfg);
        ff.skip(50).unwrap();
        let v3 = ff.checkpoint().encode();
        // Reconstruct the v1 layout: version 1, no frontend byte, no
        // trailing checksum. The frontend byte sits immediately after the
        // length-prefixed name and the u64 fingerprint.
        let name_len = u32::from_le_bytes(v3[8..12].try_into().unwrap()) as usize;
        let frontend_pos = 12 + name_len + 8;
        let mut v1 = v3[..v3.len() - 8].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        v1.remove(frontend_pos);
        let ckpt = Checkpoint::decode(&v1).expect("v1 stream decodes");
        assert_eq!(ckpt.frontend, Frontend::Synth);
        assert_eq!(ckpt, Checkpoint::decode(&v3).unwrap(), "payload identical apart from kind");
        // A version-2 stream (frontend byte, no checksum) also decodes.
        let mut v2 = v3[..v3.len() - 8].to_vec();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(Checkpoint::decode(&v2).expect("v2 stream decodes"), ckpt);
        // An unknown frontend code in a v2 stream is named corrupt.
        let mut bad = v2.clone();
        bad[frontend_pos] = 7;
        let err = Checkpoint::decode(&bad).unwrap_err();
        assert!(err.to_string().contains("frontend"), "{err}");
    }

    /// Truncated and corrupted streams produce named errors, not panics.
    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Checkpoint::decode(b"nope"), Err(CkptError::BadMagic));
        let w = by_name("compress", Size::Tiny).unwrap().program;
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let mut ff = FastForward::new(&w, &cfg);
        ff.skip(50).unwrap();
        let bytes = ff.checkpoint().encode();
        for cut in [3, 9, 30, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut versioned = bytes;
        versioned[4] = 9; // version little-endian low byte
        assert_eq!(Checkpoint::decode(&versioned), Err(CkptError::UnsupportedVersion(9)));
    }
}
