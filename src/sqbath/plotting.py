"""Deterministic SVG charts for the two reference scenarios.

The writer is deliberately primitive — fixed canvas, fixed float
formatting, no external plotting dependency — so that identical inputs
produce byte-identical files, which the golden-file tests rely on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nonclassicality import tau_m, transition_time
from .reservoir import ReservoirParams
from .states import PhotonAddedThermal, StateSpec, Thermal

WIDTH = 640.0
HEIGHT = 420.0
MARGIN_L = 64.0
MARGIN_R = 20.0
MARGIN_T = 40.0
MARGIN_B = 52.0


@dataclass(frozen=True)
class FigureSpec:
    """One τ_m-vs-Γt chart: scenario, grid, and axis cosmetics."""

    name: str
    title: str
    state: StateSpec
    reservoir: ReservoirParams
    gt_start: float
    gt_stop: float
    gt_step: float
    x_ticks: tuple[float, ...]
    y_ticks: tuple[float, ...]

    def grid(self) -> np.ndarray:
        n = round((self.gt_stop - self.gt_start) / self.gt_step)
        return self.gt_start + self.gt_step * np.arange(n + 1)


def figure_specs() -> dict[str, FigureSpec]:
    """The two reference scenarios: a thermal state turning nonclassical
    under an ideally squeezed reservoir, and a photon-added thermal state
    relaxing back to classicality."""
    return {
        "figure1": FigureSpec(
            name="figure1",
            title="thermal n̄=1, reservoir N=1, M=−√2",
            state=Thermal(nbar=1.0),
            reservoir=ReservoirParams(N=1.0, M=-math.sqrt(2.0)),
            gt_start=0.0,
            gt_stop=2.0,
            gt_step=0.01,
            x_ticks=(0.0, 0.5, 1.0, 1.5, 2.0),
            y_ticks=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
        ),
        "figure2": FigureSpec(
            name="figure2",
            title="photon-added thermal n̄=1, reservoir N=2, M=1",
            state=PhotonAddedThermal(nbar=1.0),
            reservoir=ReservoirParams(N=2.0, M=1.0),
            gt_start=0.0,
            gt_stop=1.0,
            gt_step=0.005,
            x_ticks=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
            y_ticks=(0.0, 0.25, 0.5, 0.75, 1.0),
        ),
    }


def figure_curve(spec: FigureSpec) -> tuple[np.ndarray, np.ndarray]:
    """(Γt grid, clamped τ_m values) for a figure scenario."""
    gts = spec.grid()
    g = spec.reservoir.gamma
    return gts, tau_m(spec.state, spec.reservoir, gts / g)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:g}"


def svg_line_chart(
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    title: str,
    x_label: str,
    y_label: str,
    x_ticks: tuple[float, ...],
    y_ticks: tuple[float, ...],
    marker_x: float | None = None,
    marker_label: str | None = None,
) -> str:
    """Render one polyline chart to an SVG string (fixed 640x420 canvas)."""
    x_lo, x_hi = min(x_ticks), max(x_ticks)
    y_lo, y_hi = min(y_ticks), max(y_ticks)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">'
    )
    out.append('<rect width="100%" height="100%" fill="white"/>')
    out.append(
        f'<text x="{WIDTH / 2:g}" y="24" font-family="monospace" '
        f'font-size="14" text-anchor="middle">{title}</text>'
    )

    for xt in x_ticks:
        x = _fmt(px(xt))
        out.append(
            f'<line x1="{x}" y1="{_fmt(py(y_lo))}" x2="{x}" '
            f'y2="{_fmt(py(y_hi))}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{_fmt(py(y_lo) + 18)}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{_tick_label(xt)}</text>'
        )
    for yt in y_ticks:
        y = _fmt(py(yt))
        out.append(
            f'<line x1="{_fmt(px(x_lo))}" y1="{y}" x2="{_fmt(px(x_hi))}" '
            f'y2="{y}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px(x_lo) - 8)}" y="{_fmt(py(yt) + 4)}" '
            f'font-family="monospace" font-size="12" '
            f'text-anchor="end">{_tick_label(yt)}</text>'
        )

    out.append(
        f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{WIDTH / 2:g}" y="{HEIGHT - 12:g}" font-family="monospace" '
        f'font-size="13" text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{HEIGHT / 2:g}" font-family="monospace" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {HEIGHT / 2:g})">'
        f"{y_label}</text>"
    )

    if marker_x is not None and x_lo <= marker_x <= x_hi:
        mx = _fmt(px(marker_x))
        out.append(
            f'<line x1="{mx}" y1="{_fmt(py(y_lo))}" x2="{mx}" '
            f'y2="{_fmt(py(y_hi))}" stroke="#888888" stroke-width="1" '
            'stroke-dasharray="5,4"/>'
        )
        out.append(
            f'<circle cx="{mx}" cy="{_fmt(py(0.0))}" r="4" fill="none" '
            'stroke="black" stroke-width="1.5"/>'
        )
        if marker_label is not None:
            out.append(
                f'<text x="{_fmt(px(marker_x) + 8)}" y="{_fmt(MARGIN_T + 16)}" '
                f'font-family="monospace" font-size="12">{marker_label}</text>'
            )

    pts = " ".join(f"{_fmt(px(float(x)))},{_fmt(py(float(y)))}" for x, y in zip(xs, ys))
    out.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="2"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_figure(spec: FigureSpec) -> str:
    gts, vals = figure_curve(spec)
    g = spec.reservoir.gamma
    t_cross = transition_time(spec.state, spec.reservoir)
    marker = None if t_cross is None else g * t_cross
    label = None if marker is None else f"Γt ≈ {marker:.4f}"
    return svg_line_chart(
        gts,
        vals,
        title=spec.title,
        x_label="Γt",
        y_label="τ_m",
        x_ticks=spec.x_ticks,
        y_ticks=spec.y_ticks,
        marker_x=marker,
        marker_label=label,
    )


def write_figures(outdir: str) -> list[str]:
    """Write figure1.svg and figure2.svg into outdir (created if missing);
    returns the paths."""
    import os

    os.makedirs(outdir, exist_ok=True)
    paths = []
    for name, spec in figure_specs().items():
        path = os.path.join(outdir, f"{name}.svg")
        svg = render_figure(spec)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        paths.append(path)
    return paths
