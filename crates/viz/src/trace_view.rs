//! Per-round energy chart from a [`RunTrace`]: minimum and mean residual
//! energy over rounds, with the death line marked — the time-series view
//! of the Fig. 3(c) lifespan experiment.

use crate::svg::Svg;
use qlec_net::trace::RunTrace;

/// Chart options.
#[derive(Debug, Clone)]
pub struct ChartStyle {
    pub width: f64,
    pub height: f64,
    /// Death line to draw (J); omit with `None`.
    pub death_line: Option<f64>,
}

impl Default for ChartStyle {
    fn default() -> Self {
        ChartStyle {
            width: 640.0,
            height: 320.0,
            death_line: None,
        }
    }
}

/// Render the residual-energy chart of a recorded run.
///
/// # Panics
/// Panics on an empty trace.
pub fn render_energy_chart(trace: &RunTrace, style: &ChartStyle) -> String {
    assert!(!trace.rounds.is_empty(), "cannot chart an empty trace");
    let margin = 45.0;
    let plot_w = style.width - 2.0 * margin;
    let plot_h = style.height - 2.0 * margin;

    // Series: per round, min and mean residual.
    let mins: Vec<f64> = trace
        .rounds
        .iter()
        .map(|r| r.residuals.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let means: Vec<f64> = trace
        .rounds
        .iter()
        .map(|r| r.residuals.iter().sum::<f64>() / r.residuals.len().max(1) as f64)
        .collect();
    let y_max = means
        .iter()
        .chain(mins.iter())
        .copied()
        .fold(0.0f64, f64::max)
        .max(style.death_line.unwrap_or(0.0))
        .max(1e-12);

    let n = trace.rounds.len();
    let px = |i: usize| -> f64 {
        if n > 1 {
            margin + i as f64 / (n - 1) as f64 * plot_w
        } else {
            margin + plot_w / 2.0
        }
    };
    let py = |v: f64| -> f64 { margin + (1.0 - (v / y_max).clamp(0.0, 1.0)) * plot_h };

    let mut svg = Svg::new(style.width, style.height);
    svg.background("#ffffff");
    svg.rect_outline(margin, margin, plot_w, plot_h, "#888888", 1.0);
    svg.text(
        margin,
        margin - 12.0,
        13.0,
        "#222222",
        &format!("residual energy per round — {}", trace.protocol),
    );

    let min_pts: Vec<(f64, f64)> = mins
        .iter()
        .enumerate()
        .map(|(i, &v)| (px(i), py(v)))
        .collect();
    let mean_pts: Vec<(f64, f64)> = means
        .iter()
        .enumerate()
        .map(|(i, &v)| (px(i), py(v)))
        .collect();
    svg.polyline(&mean_pts, "#2850c8", 2.0);
    svg.polyline(&min_pts, "#ff3214", 2.0);

    if let Some(dl) = style.death_line {
        svg.dashed_hline(py(dl), margin, margin + plot_w, "#555555");
        svg.text(
            margin + plot_w - 110.0,
            py(dl) - 5.0,
            10.0,
            "#555555",
            &format!("death line {dl} J"),
        );
    }

    // Axis labels.
    svg.text(margin, style.height - 12.0, 10.0, "#444444", "round 0");
    svg.text(
        margin + plot_w - 60.0,
        style.height - 12.0,
        10.0,
        "#444444",
        &format!("round {}", n.saturating_sub(1)),
    );
    svg.text(6.0, margin + 8.0, 10.0, "#444444", &format!("{y_max:.1} J"));
    svg.text(6.0, margin + plot_h, 10.0, "#444444", "0 J");
    // Series legend.
    svg.line(
        margin + 6.0,
        margin + 12.0,
        margin + 30.0,
        margin + 12.0,
        "#2850c8",
        2.0,
    );
    svg.text(
        margin + 36.0,
        margin + 16.0,
        10.0,
        "#222222",
        "mean residual",
    );
    svg.line(
        margin + 6.0,
        margin + 28.0,
        margin + 30.0,
        margin + 28.0,
        "#ff3214",
        2.0,
    );
    svg.text(
        margin + 36.0,
        margin + 32.0,
        10.0,
        "#222222",
        "min residual (death-line node)",
    );

    svg.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlec_net::protocol::GreedyEnergyProtocol;
    use qlec_net::trace::TraceSink;
    use qlec_net::{NetworkBuilder, SimConfig, Simulator};
    use qlec_obs::ObserverSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Arc, Mutex};

    fn trace(rounds: u32) -> RunTrace {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new().uniform_cube(&mut rng, 20, 200.0, 5.0);
        let mut cfg = SimConfig::paper(5.0);
        cfg.rounds = rounds;
        let sink = Arc::new(Mutex::new(TraceSink::new("greedy-energy")));
        let mut obs = ObserverSet::new();
        obs.attach(sink.clone());
        let _ = Simulator::builder(net)
            .config(cfg)
            .observers(obs)
            .build()
            .run(&mut GreedyEnergyProtocol::new(3), &mut rng);
        let trace = sink.lock().unwrap().trace().clone();
        trace
    }

    #[test]
    fn chart_contains_both_series_and_title() {
        let doc = render_energy_chart(&trace(5), &ChartStyle::default());
        assert_eq!(doc.matches("<polyline").count(), 2);
        assert!(doc.contains("greedy-energy"));
        assert!(doc.contains("mean residual"));
        assert!(doc.contains("</svg>"));
    }

    #[test]
    fn death_line_draws_dashed_guide() {
        let style = ChartStyle {
            death_line: Some(3.5),
            ..Default::default()
        };
        let doc = render_energy_chart(&trace(4), &style);
        assert!(doc.contains("stroke-dasharray"));
        assert!(doc.contains("death line 3.5 J"));
    }

    #[test]
    fn single_round_trace_renders() {
        let doc = render_energy_chart(&trace(1), &ChartStyle::default());
        assert!(doc.contains("<svg"));
        assert!(!doc.contains("NaN"));
    }

    #[test]
    #[should_panic]
    fn empty_trace_rejected() {
        render_energy_chart(&RunTrace::default(), &ChartStyle::default());
    }
}
