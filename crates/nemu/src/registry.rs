//! The single registry of interpreter personalities.
//!
//! Every tier that fans out over "all interpreters" — the conformance
//! suite, the Fig. 8 bench shootout, the `campaign --sample --ref`
//! profiling engine, the
//! coverage and fuzz pins — derives its set from here, so adding a
//! personality cannot silently skip a test tier.

use crate::interp::{DromajoLike, Interpreter, QemuTciLike, SpikeLike};
use crate::trace::NemuTrace;
use riscv_isa::asm::Program;

/// One registered interpreter personality.
#[derive(Clone, Copy)]
pub struct Personality {
    /// Stable name, identical to [`Interpreter::name`] of the built
    /// interpreter (and to the `campaign --sample --ref` spelling).
    pub name: &'static str,
    /// Paper counterpart in the Fig. 8 shootout.
    pub paper_counterpart: &'static str,
    /// Boot a fresh interpreter of this personality.
    pub build: fn(&Program) -> Box<dyn Interpreter>,
}

/// All interpreter personalities, slowest-architecture first.
pub const PERSONALITIES: &[Personality] = &[
    Personality {
        name: "dromajo-like",
        paper_counterpart: "Dromajo",
        build: |p| Box::new(DromajoLike::new(p)),
    },
    Personality {
        name: "qemu-tci-like",
        paper_counterpart: "QEMU-TCI",
        build: |p| Box::new(QemuTciLike::new(p)),
    },
    Personality {
        name: "spike-like",
        paper_counterpart: "Spike",
        build: |p| Box::new(SpikeLike::new(p)),
    },
    Personality {
        name: "nemu-trace",
        paper_counterpart: "NEMU",
        build: |p| Box::new(NemuTrace::new(p)),
    },
];

/// The registered personality names, in registry order.
pub fn names() -> Vec<&'static str> {
    PERSONALITIES.iter().map(|p| p.name).collect()
}

/// Look up a personality by name.
pub fn find(name: &str) -> Option<&'static Personality> {
    PERSONALITIES.iter().find(|p| p.name == name)
}

/// Boot a named personality on a program.
pub fn boot(name: &str, program: &Program) -> Option<Box<dyn Interpreter>> {
    find(name).map(|p| (p.build)(program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};

    #[test]
    fn registry_names_match_interpreter_names() {
        let mut a = Asm::new(0x8000_0000);
        a.li(A0, 42);
        a.ebreak();
        let p = a.assemble();
        for pers in PERSONALITIES {
            let i = (pers.build)(&p);
            assert_eq!(i.name(), pers.name);
        }
    }

    #[test]
    fn registry_has_four_personalities_and_unique_names() {
        assert_eq!(
            names(),
            ["dromajo-like", "qemu-tci-like", "spike-like", "nemu-trace"]
        );
        assert!(find("nemu-trace").is_some());
        assert!(find("nemu").is_none());
        assert!(find("no-such").is_none());
    }

    #[test]
    fn every_personality_runs_a_program() {
        let mut a = Asm::new(0x8000_0000);
        a.li(A0, 41);
        a.addi(A0, A0, 1);
        a.ebreak();
        let p = a.assemble();
        for pers in PERSONALITIES {
            let mut i = boot(pers.name, &p).unwrap();
            assert_eq!(i.run(1000).exit_code, Some(42), "{}", pers.name);
        }
    }
}
