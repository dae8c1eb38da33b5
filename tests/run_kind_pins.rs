//! Golden results for every run the program decodes from its params:
//! the Table II and Figure 8 use-cases at `Fidelity::Smoke`, row by
//! row, and the CLI campaign's six boots. The literals were captured
//! before the run kinds replaced the per-use-case param decoders; a
//! decoder that reads a param differently changes a digest here.
//!
//! Each pin is recorded beside the simulator [`MODEL`]. A change that
//! moves a simulated number fails here until the pin is re-recorded;
//! re-record it together with a `MODEL` bump (which moves every
//! simulator hash, and so every run hash). The test cannot tell a
//! re-recorded digest without a bump from one with it: the `MODEL`
//! prefix is a reminder, not a check.

use simart::remote::execute_campaign_params;
use simart::sim::system::Fidelity;
use simart::sim::MODEL;
use simart_bench::{usecase1, usecase2};
use simart_codec::fnv1a;

fn digest(lines: impl IntoIterator<Item = String>) -> u64 {
    let text: String = lines.into_iter().map(|line| line + "\n").collect();
    fnv1a(text.as_bytes())
}

#[test]
fn table2_rows_are_pinned() {
    let data = usecase1::run(Fidelity::Smoke);
    assert_eq!(data.rows.len(), 60);
    let rows = data.rows.iter().map(|r| {
        format!(
            "{} {} {} {} {} {:016x}",
            r.app,
            r.os,
            r.cores,
            r.exec_ticks,
            r.instructions,
            r.utilization.to_bits()
        )
    });
    assert_eq!(
        format!("{MODEL} {:016x}", digest(rows)),
        "simart-fullsim/1 c23bccd73ac2361d"
    );
}

#[test]
fn figure8_rows_are_pinned() {
    let data = usecase2::run(Fidelity::Smoke);
    assert_eq!(data.rows.len(), 480);
    let rows = data.rows.iter().map(|r| {
        let c = &r.config;
        format!(
            "{} {} {} {} {} {:?} {}",
            c.cpu, c.mem, c.cores, c.boot, c.kernel, r.outcome, r.boot_ticks
        )
    });
    assert_eq!(
        format!("{MODEL} {:016x}", digest(rows)),
        "simart-fullsim/1 384c871855e69330"
    );
}

#[test]
fn cli_campaign_outcomes_are_pinned() {
    let mut lines = vec![MODEL.to_owned()];
    for cpu in ["kvm", "atomic", "timing"] {
        for cores in ["1", "2"] {
            let outcome =
                execute_campaign_params(&[cpu.to_owned(), cores.to_owned()]).expect("boots");
            assert!(outcome.events.is_empty(), "no checkpoint store configured");
            lines.push(format!(
                "{cpu} {cores} {} {} {} {:016x}",
                outcome.outcome,
                outcome.sim_ticks,
                outcome.success,
                fnv1a(&outcome.payload)
            ));
        }
    }
    assert_eq!(
        lines,
        [
            "simart-fullsim/1",
            "kvm 1 success 47227725000 true 34c59459bf174e5f",
            "kvm 2 success 48344940000 true a7f44901f0e1ac65",
            "atomic 1 success 866099803230 true 7ffd3d1e8d1ef5c1",
            "atomic 2 success 739290822480 true 22bf0a87d2fadc69",
            "timing 1 success 1263190515030 true 955af3d461f951b3",
            "timing 2 success 1569624835968 true 020d7a31b423e58d",
        ]
    );
}
