//! D2 `wall-clock`: no wall-clock reads outside the runtime engine.
//!
//! The DES and everything downstream of it (core failure model, chaos
//! campaigns, calibration) must compute over *virtual* time
//! (`alm_des::time`). A stray `Instant::now()` or `SystemTime` read makes
//! results depend on host load, which shows up as flaky golden-gate diffs
//! long before anyone suspects the clock. Only `crates/runtime` — the
//! thread-backed execution engine whose entire point is real elapsed time —
//! may touch the wall clock, besides the `perfbench/` harness that times it.

use crate::diag::Diagnostic;
use crate::source::has_token;
use crate::Workspace;

use super::Rule;

const BANNED: &[(&str, &str)] = &[
    ("Instant::now", "`Instant::now()` reads the wall clock"),
    ("SystemTime", "`SystemTime` reads the wall clock"),
];

pub struct WallClock {
    /// Path prefixes exempted from the rule: the real-time engine, and the
    /// benchmark harness, whose job is measuring host time.
    pub exempt_prefixes: Vec<String>,
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock { exempt_prefixes: vec!["crates/runtime/".to_string(), "perfbench/".to_string()] }
    }
}

impl Rule for WallClock {
    fn id(&self) -> &'static str {
        "wall-clock"
    }

    fn code(&self) -> &'static str {
        "D2"
    }

    fn description(&self) -> &'static str {
        "wall-clock reads are confined to crates/runtime"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &ws.files {
            if self.exempt_prefixes.iter().any(|p| file.rel.starts_with(p.as_str())) {
                continue;
            }
            for (idx, line) in file.code.iter().enumerate() {
                // Test/bench/example code may time itself; virtual-time
                // purity is a property of the engines, not the harnesses.
                if file.is_test[idx] {
                    continue;
                }
                for (tok, why) in BANNED {
                    if has_token(line, tok) && !file.allowed(self.id(), idx + 1) {
                        out.push(Diagnostic {
                            code: self.code(),
                            rule: self.id(),
                            file: file.rel.clone(),
                            line: idx + 1,
                            message: format!(
                                "{why}; deterministic code must use virtual time \
                                 (alm_des::time) — only crates/runtime may use the wall clock"
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}
