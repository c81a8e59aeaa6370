//! The golden trace pins on the sharded engine with adaptive lookahead
//! windows on, the configuration the lanes benchmark runs.
//!
//! Every scenario in `common` must land on its `GOLDEN_*` constant at 2
//! and 4 lanes under the default [`netsim::AdaptiveWindow`], and the
//! check only proves something if the window controller actually ran.

mod common;

use common::{check_pins, pins, Lanes, Setup, GRID};

#[test]
fn adaptive_controller_engages_on_the_sharded_runtime() {
    for lanes in GRID {
        if !matches!(lanes, Lanes::Adaptive(_)) {
            continue;
        }
        let setup = Setup {
            lanes,
            faults: None,
        };
        let runs = check_pins("", &setup);
        // The jitter_puts pins are one long `run()` each: they must
        // record window activity.
        for (pin, run) in pins().iter().zip(&runs) {
            if pin.name.starts_with("jitter_puts/") {
                assert!(
                    run.window_activity() > Some(0),
                    "{} ({lanes:?}) recorded no window activity",
                    pin.name
                );
            }
        }
    }
}
