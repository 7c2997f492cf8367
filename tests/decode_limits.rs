//! A decode that runs past the decoder's position-embedding table fails
//! with a typed error from the position `Gather`, in the default and the
//! forced-scalar engine configuration, and leaves the session as it was.

use dnnfusion::core::{Compiler, CompilerOptions, CoreError};
use dnnfusion::models::{decoder_prefill, decoder_step, DecoderConfig};
use dnnfusion::ops::{OpError, OpKind};
use dnnfusion::runtime::{DecodeSession, ExecOptions, Executor, PlanCache, RuntimeError};
use dnnfusion::simdev::DeviceSpec;

const PROMPT: [u32; 4] = [1, 2, 3, 4];

#[test]
fn stepping_past_max_seq_is_a_gather_error_not_a_panic() {
    let cfg = DecoderConfig::test_tiny();
    let prefill = decoder_prefill(&cfg, PROMPT.len()).unwrap();
    let step = decoder_step(&cfg, PROMPT.len()).unwrap();
    let scalar = ExecOptions {
        force_scalar: true,
        ..ExecOptions::default()
    };
    for options in [ExecOptions::default(), scalar] {
        let executor = Executor::new(DeviceSpec::snapdragon_865_cpu()).with_options(options);
        let mut compiler = Compiler::new(CompilerOptions::without_rewriting());
        let cache = PlanCache::new();
        let mut session =
            DecodeSession::compile(executor, &cache, &mut compiler, &prefill, &step).unwrap();
        session.prefill(&PROMPT).unwrap();
        // Positions PROMPT.len() ..= max_seq - 1 still have an embedding row.
        for _ in PROMPT.len()..cfg.max_seq {
            session.step().unwrap();
        }
        let (tokens, cache_len) = (session.tokens().to_vec(), session.cache_len());
        let err = session.step().unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Core(CoreError::Op(OpError::InvalidShape {
                    op: OpKind::Gather,
                    ..
                }))
            ),
            "{options:?}: {err}"
        );
        assert_eq!(session.tokens(), tokens, "a failed step records no token");
        assert_eq!(
            session.cache_len(),
            cache_len,
            "a failed step keeps the cache"
        );
    }
}
