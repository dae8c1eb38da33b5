//! Regenerates Table II context plus Figures 6 and 7 (use-case 1).
//!
//! ```text
//! cargo run -p simart-bench --bin usecase1 --release [-- --quick]
//! ```

use simart::report::{BarChart, Table};
use simart::sim::os::OsImage;
use simart::sim::system::Fidelity;
use simart::sim::workload::PARSEC_APPS;
use simart_bench::usecase1::{self, CORE_COUNTS};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fidelity = if quick {
        Fidelity::Smoke
    } else {
        Fidelity::Standard
    };

    let mut table2 = Table::new(
        "Table II: Configuration Parameters for Use-Case 1",
        &["Component", "Options"],
    );
    table2.row_strs(&["CPU", "TimingSimpleCPU"]);
    table2.row_strs(&["Number of CPUs", "1, 2, 8"]);
    table2.row_strs(&["Memory", "1 channel, DDR3_1600_8x8"]);
    table2.row_strs(&[
        "OS",
        "Ubuntu 20.04 (kernel 5.4.51), Ubuntu 18.04 (kernel 4.15.18)",
    ]);
    table2.row_strs(&["Workloads", "10 PARSEC applications"]);
    table2.row_strs(&["Input sizes", "simmedium"]);
    println!("{}", table2.render());

    eprintln!("running 60 full-system simulations ({fidelity} fidelity)...");
    let data = usecase1::run(fidelity);

    let mut results = Table::new(
        "Use-case 1 raw results",
        &[
            "app",
            "os",
            "cores",
            "exec time (sim s)",
            "instructions",
            "utilization",
        ],
    );
    for row in &data.rows {
        results.row(&[
            row.app.clone(),
            row.os.to_string(),
            row.cores.to_string(),
            format!("{:.4}", usecase1::seconds(row.exec_ticks)),
            row.instructions.to_string(),
            format!("{:.3}", row.utilization),
        ]);
    }
    println!("{}", results.render());

    for cores in CORE_COUNTS {
        let mut chart = BarChart::new(
            format!("Figure 6 ({cores} core(s)): exec-time difference, Ubuntu 18.04 - 20.04"),
            "s",
        );
        for (app, c, diff) in data.figure6() {
            if c == cores {
                chart.bar(app, diff);
            }
        }
        println!("{}", chart.render(48));
    }

    for os in OsImage::ALL {
        let mut chart = BarChart::new(format!("Figure 7 ({os}): speedup from 1 to 8 cores"), "x");
        for app in PARSEC_APPS {
            if let Some((_, _, speedup)) = data
                .figure7()
                .into_iter()
                .find(|(a, o, _)| a == app && *o == os)
            {
                chart.bar(app, speedup);
            }
        }
        println!("{}", chart.render(48));
    }
}
