//! `replay`: runtime prediction of both families, with no training in
//! the measured phase. Each round replays the six CNN benchmarks' test
//! traces through the direction lanes, the Mini-engine hybrid and the
//! timing model (`direction`), then the three indirect-heavy programs'
//! test traces through the target lanes (`target`).

use crate::checks::Check;
use crate::direction;
use crate::pipeline::Ops;
use crate::span::Tracer;
use crate::target;

pub struct Setup {
    pub direction: direction::Setup,
    pub target: target::Setup,
}

pub fn setup(t: &mut Tracer, seed: u64) -> Setup {
    Setup { direction: direction::setup(t, seed), target: target::setup(t, seed) }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Out {
    pub direction: direction::Out,
    pub target: target::Out,
}

pub fn round(t: &mut Tracer, setup: &Setup, ops: &mut Ops) -> Out {
    Out {
        direction: direction::round(t, &setup.direction, ops),
        target: target::round(t, &setup.target, ops),
    }
}

pub fn check(setup: &Setup, first: &Out) -> Vec<Check> {
    let mut checks = direction::check(&setup.direction, &first.direction);
    checks.extend(target::check(&setup.target, &first.target));
    checks
}
