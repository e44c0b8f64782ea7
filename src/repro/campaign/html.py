"""Deterministic static HTML dashboard for the run database.

``render_report`` is a *pure function* of the database contents plus
the current code fingerprint: no timestamps, no wall-clock, no
environment leaks into the output, so rendering twice — or rendering
two databases produced by the same campaign at different ``--jobs``
levels — yields byte-identical files (asserted in CI).  Host wall-clock
columns exist in the database but are deliberately not rendered; the
only wall-clock numbers on the dashboard are the ingested
``BENCH_*`` trajectories, where wall time *is* the data.

The page is self-contained: inline CSS, inline SVG charts, no JS
frameworks (native ``<svg><title>`` tooltips provide hover detail).
Charts follow the repo-standard viz rules: at most one y-axis per
chart, series colors assigned by entity in a fixed validated
categorical order, status colors (deterministic green / diverged red)
always paired with a text label, and every chart accompanied by a
table of the same numbers.
"""

from __future__ import annotations

import html as _html
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.rundb import RunDB, RUNDB_SCHEMA, RunRow

# Validated categorical palette (light/dark pairs; fixed slot order —
# the ordering is the CVD-safety mechanism, never cycle or re-sort it).
_SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948")
_SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767")

_CSS = """
:root { color-scheme: light dark; }
body.viz-root {
  --surface-1: #fcfcfb; --surface-2: #f4f4f2; --line: #dddcd8;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --ok: #008300; --bad: #e34948;
""" + "".join(f"  --series-{i + 1}: {c};\n" for i, c in
              enumerate(_SERIES_LIGHT)) + """
  margin: 0; background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
@media (prefers-color-scheme: dark) {
  body.viz-root {
    --surface-1: #1a1a19; --surface-2: #242423; --line: #3a3a38;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --ok: #30b030; --bad: #e66767;
""" + "".join(f"    --series-{i + 1}: {c};\n" for i, c in
              enumerate(_SERIES_DARK)) + """
  }
}
main { max-width: 980px; margin: 0 auto; padding: 0 20px 48px; }
header.page { max-width: 980px; margin: 0 auto; padding: 24px 20px 4px; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 18px; margin: 36px 0 4px; }
h3 { font-size: 15px; margin: 20px 0 6px; }
p.sub { color: var(--text-secondary); margin: 0 0 8px; }
table.data { border-collapse: collapse; width: 100%; margin: 8px 0 16px;
             font-size: 13px; }
table.data th { text-align: left; color: var(--text-secondary);
                font-weight: 600; border-bottom: 1px solid var(--line);
                padding: 4px 8px; }
table.data td { border-bottom: 1px solid var(--line); padding: 4px 8px;
                font-variant-numeric: tabular-nums; }
table.data td.num { text-align: right; }
code, td.hash { font-family: ui-monospace, "SF Mono", Menlo, monospace;
                font-size: 12px; color: var(--text-secondary); }
.badge { display: inline-block; border-radius: 9px; padding: 0 8px;
         font-size: 12px; line-height: 18px; border: 1px solid var(--line);
         color: var(--text-secondary); margin: 0 4px 4px 0; }
.badge.ok { color: var(--ok); border-color: var(--ok); }
.badge.bad { color: var(--bad); border-color: var(--bad); }
figure.chart { margin: 8px 0 4px; }
figure.chart svg { max-width: 100%; height: auto; }
svg .grid { stroke: var(--line); stroke-width: 1; }
svg .axis-label { fill: var(--text-secondary); font-size: 11px;
                  font-family: system-ui, sans-serif; }
svg .ref-line { stroke: var(--text-secondary); stroke-width: 1;
                stroke-dasharray: 4 3; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px;
          font-size: 12px; color: var(--text-secondary); margin: 2px 0 8px; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
                  border-radius: 2px; margin-right: 5px;
                  vertical-align: -1px; }
footer { max-width: 980px; margin: 0 auto; padding: 12px 20px 32px;
         color: var(--text-secondary); font-size: 12px;
         border-top: 1px solid var(--line); }
"""


def _esc(text: object) -> str:
    return _html.escape(str(text), quote=True)


def _f(x: float, nd: int = 3) -> str:
    """Stable float rendering for table cells (no trailing zeros)."""
    if x != x:  # NaN
        return "—"
    s = f"{x:.{nd}f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-0") else "0"


def _c(x: float) -> str:
    """Stable SVG coordinate rendering."""
    s = f"{x:.2f}"
    return s[:-3] if s.endswith(".00") else s


def _nice_step(span: float, target_ticks: int = 4) -> float:
    """1/2/5-progression tick step covering ``span``."""
    if span <= 0:
        return 1.0
    raw = span / max(1, target_ticks)
    mag = 10.0 ** len(str(int(raw))) / 10.0 if raw >= 1 else 1.0
    while mag > raw:
        mag /= 10.0
    for mult in (1, 2, 5, 10):
        if mag * mult >= raw:
            return mag * mult
    return mag * 10


# ----------------------------------------------------------------------
# SVG charts.
# ----------------------------------------------------------------------

_W, _H = 760, 240
_ML, _MR, _MT, _MB = 56, 12, 10, 34


def _y_axis(lo: float, hi: float) -> Tuple[List[str], float, float]:
    """Grid lines + labels for [lo, hi]; returns (parts, lo, hi)."""
    step = _nice_step(hi - lo)
    ticks = []
    t = (int(lo / step)) * step
    while t <= hi + step * 1e-9:
        if t >= lo - step * 1e-9:
            ticks.append(t)
        t += step
    if not ticks:
        ticks = [lo, hi]
    lo = min(lo, ticks[0])
    hi = max(hi, ticks[-1])
    parts = []
    for t in ticks:
        y = _MT + (_H - _MT - _MB) * (1 - (t - lo) / (hi - lo or 1.0))
        parts.append(f'<line class="grid" x1="{_ML}" y1="{_c(y)}" '
                     f'x2="{_W - _MR}" y2="{_c(y)}"/>')
        parts.append(f'<text class="axis-label" x="{_ML - 6}" '
                     f'y="{_c(y + 3.5)}" text-anchor="end">{_f(t)}</text>')
    return parts, lo, hi


def _legend(names: Sequence[str]) -> str:
    if len(names) < 2:
        return ""
    items = "".join(
        f'<span><span class="swatch" '
        f'style="background:var(--series-{i % 8 + 1})"></span>{_esc(n)}</span>'
        for i, n in enumerate(names))
    return f'<div class="legend">{items}</div>'


def _bar_path(x: float, y: float, w: float, y0: float) -> str:
    """Bar with a rounded data-end, anchored flat on the baseline."""
    r = min(2.0, w / 2, abs(y0 - y))
    return (f"M{_c(x)},{_c(y0)} V{_c(y + r)} Q{_c(x)},{_c(y)} "
            f"{_c(x + r)},{_c(y)} H{_c(x + w - r)} Q{_c(x + w)},{_c(y)} "
            f"{_c(x + w)},{_c(y + r)} V{_c(y0)} Z")


def svg_bar_chart(groups: Sequence[Tuple[str, Sequence[Optional[float]]]],
                  series: Sequence[str], ylabel: str,
                  ref_line: Optional[float] = None) -> str:
    """Grouped bars: one group per x entry, one bar per series member."""
    values = [v for _, vs in groups for v in vs if v is not None]
    if not values:
        return ""
    hi = max(values + ([ref_line] if ref_line is not None else []))
    parts, lo, hi = _y_axis(0.0, hi * 1.05)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    y0 = _MT + plot_h

    def ypix(v: float) -> float:
        return _MT + plot_h * (1 - (v - lo) / (hi - lo or 1.0))

    gw = plot_w / max(1, len(groups))
    bw = max(3.0, min(26.0, (gw - 10) / max(1, len(series)) - 2))
    for gi, (label, vs) in enumerate(groups):
        gx = _ML + gi * gw
        total = len(series) * (bw + 2) - 2
        x = gx + (gw - total) / 2
        for si, v in enumerate(vs):
            if v is not None:
                tip = f"{label} · {series[si]}: {_f(v)}"
                parts.append(
                    f'<path fill="var(--series-{si % 8 + 1})" '
                    f'd="{_bar_path(x, ypix(v), bw, y0)}">'
                    f'<title>{_esc(tip)}</title></path>')
            x += bw + 2
        parts.append(f'<text class="axis-label" x="{_c(gx + gw / 2)}" '
                     f'y="{_H - 14}" text-anchor="middle">'
                     f'{_esc(label)}</text>')
    if ref_line is not None and lo <= ref_line <= hi:
        parts.append(f'<line class="ref-line" x1="{_ML}" '
                     f'y1="{_c(ypix(ref_line))}" x2="{_W - _MR}" '
                     f'y2="{_c(ypix(ref_line))}"/>')
    parts.append(f'<text class="axis-label" x="{_ML}" y="{_H - 2}">'
                 f'{_esc(ylabel)}</text>')
    svg = (f'<svg viewBox="0 0 {_W} {_H}" width="{_W}" height="{_H}" '
           f'role="img">' + "".join(parts) + "</svg>")
    return (f'<figure class="chart">{_legend(series)}{svg}</figure>')


def svg_line_chart(series: Sequence[Tuple[str, Sequence[Tuple[str, float]]]],
                   ylabel: str, ref_line: Optional[float] = None) -> str:
    """Lines over an ordinal x axis; each point is (tooltip, value)."""
    values = [v for _, pts in series for _, v in pts]
    if not values:
        return ""
    lo = min(values + ([ref_line] if ref_line is not None else []))
    hi = max(values + ([ref_line] if ref_line is not None else []))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = (hi - lo) * 0.08
    parts, lo, hi = _y_axis(min(lo - pad, 0 if lo >= 0 and lo < pad
                                else lo - pad), hi + pad)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    n = max(len(pts) for _, pts in series)

    def xpix(i: int) -> float:
        if n == 1:
            return _ML + plot_w / 2
        return _ML + plot_w * i / (n - 1)

    def ypix(v: float) -> float:
        return _MT + plot_h * (1 - (v - lo) / (hi - lo or 1.0))

    if ref_line is not None and lo <= ref_line <= hi:
        parts.append(f'<line class="ref-line" x1="{_ML}" '
                     f'y1="{_c(ypix(ref_line))}" x2="{_W - _MR}" '
                     f'y2="{_c(ypix(ref_line))}"/>')
    for si, (name, pts) in enumerate(series):
        color = f"var(--series-{si % 8 + 1})"
        coords = " ".join(f"{_c(xpix(i))},{_c(ypix(v))}"
                          for i, (_t, v) in enumerate(pts))
        if len(pts) > 1:
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="2" points="{coords}"/>')
        for i, (tip, v) in enumerate(pts):
            parts.append(
                f'<circle cx="{_c(xpix(i))}" cy="{_c(ypix(v))}" r="4" '
                f'fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{_esc(f"{name} · {tip}: ")}'
                f'{_f(v)}</title></circle>')
    for i in range(n):
        parts.append(f'<text class="axis-label" x="{_c(xpix(i))}" '
                     f'y="{_H - 14}" text-anchor="middle">{i + 1}</text>')
    parts.append(f'<text class="axis-label" x="{_ML}" y="{_H - 2}">'
                 f'{_esc(ylabel)}</text>')
    svg = (f'<svg viewBox="0 0 {_W} {_H}" width="{_W}" height="{_H}" '
           f'role="img">' + "".join(parts) + "</svg>")
    names = [n for n, _ in series]
    return f'<figure class="chart">{_legend(names)}{svg}</figure>'


# ----------------------------------------------------------------------
# Report assembly.
# ----------------------------------------------------------------------

def _provenance(row: RunRow) -> str:
    if row.quarantined:
        return "quarantined"
    if row.cache_hit:
        return "cache"
    if row.journal_hit:
        return "journal"
    if row.serial_fallback:
        return "serial-fallback"
    return "simulated"


def _provenance_cell(row: RunRow) -> str:
    """Provenance cell: badge the states a reader must not miss."""
    prov = _provenance(row)
    if row.quarantined:
        kind = (row.blame or {}).get("kind", "poison")
        return (f'<span class="badge bad">quarantined ({_esc(kind)})'
                f"</span>")
    cell = _esc(prov)
    if row.integrity_ok is False:
        cell += ' <span class="badge bad">✗ row corrupt</span>'
    return cell


def _digest_badge(n_runs: int, n_digests: int, arch: str) -> str:
    if n_runs < 2:
        return (f'<span class="badge">{_esc(arch)}: single run '
                f'(no stability evidence)</span>')
    if n_digests == 1:
        return (f'<span class="badge ok">✓ {_esc(arch)}: bitwise stable '
                f'across {n_runs} runs</span>')
    return (f'<span class="badge bad">✗ {_esc(arch)}: {n_digests} distinct '
            f'digests across {n_runs} runs</span>')


def _figure_section(db: RunDB, campaign: str, figure: str,
                    rows: List[RunRow], meta: Dict[str, str],
                    fingerprint: str) -> str:
    out: List[str] = []
    title = meta.get("title") or figure
    normalize = meta.get("normalize", "")
    out.append(f'<h2 id="{_esc(campaign)}-{_esc(figure)}">'
               f'{_esc(title)}</h2>')
    out.append(f'<p class="sub">campaign <code>{_esc(campaign)}</code> · '
               f'figure <code>{_esc(figure)}</code> · '
               f'{len(rows)} recorded run(s)</p>')

    n_quarantined = sum(1 for r in rows if r.quarantined)
    n_corrupt = sum(1 for r in rows if r.integrity_ok is False)
    if n_quarantined:
        out.append(f'<p><span class="badge bad">degraded: '
                   f'{n_quarantined} quarantined job(s)</span></p>')
    if n_corrupt:
        out.append(f'<p><span class="badge bad">✗ integrity: '
                   f'{n_corrupt} corrupt row(s) — run '
                   f'<code>repro doctor</code></span></p>')

    # Latest row per matrix cell (workload, arch, seed, fault-plan seed)
    # drives the table and the chart; the full history feeds the badges
    # and the trajectory chart below.
    history: Dict[tuple, List[RunRow]] = {}
    for row in rows:
        plan = row.fault_plan["seed"] if row.fault_plan else None
        history.setdefault((row.workload, row.arch, row.seed, plan),
                           []).append(row)
    cell_order = list(history)
    latest = {key: runs[-1] for key, runs in history.items()}
    # A plan column only where fault plans were run (chaos campaigns).
    plans = any(p is not None for _w, _a, _s, p in cell_order)

    # Determinism badges: digest stability per (workload, arch) cell
    # over every recorded run of it (jitter seeds and re-runs alike —
    # one workload's digest never counts against another's).
    by_arch: Dict[str, Dict[str, List[str]]] = {}
    arch_order: List[str] = []
    for row in rows:
        if row.quarantined:
            continue  # no result: nothing to say about digest stability
        if row.arch not in by_arch:
            by_arch[row.arch] = {}
            arch_order.append(row.arch)
        by_arch[row.arch].setdefault(row.workload, []).append(
            row.output_digest)
    badges = []
    for arch in arch_order:
        cells = by_arch[arch]
        n = max(len(d) for d in cells.values())
        worst = max((len(set(d)) for d in cells.values() if len(d) >= 2),
                    default=1)
        badges.append(_digest_badge(n, worst, arch))
    out.append("<p>" + "".join(badges) + "</p>")

    # Normalized-slowdown chart (vs the figure's normalize arch).
    workload_order: List[str] = []
    arch_series: List[str] = []
    for w, a, _s, _p in cell_order:
        if w not in workload_order:
            workload_order.append(w)
        if a not in arch_series:
            arch_series.append(a)
    slowdown: Dict[tuple, float] = {}
    if normalize:
        for (w, a, s, p), row in latest.items():
            base = latest.get((w, normalize, s, p))
            if row.quarantined or (base is not None and base.quarantined):
                continue  # a blame row has no cycles to normalize
            if base is not None and base.cycles:
                slowdown[(w, a, s, p)] = row.cycles / base.cycles
        groups = []
        for w in workload_order:
            vals: List[Optional[float]] = []
            for a in arch_series:
                per_seed = [slowdown[key] for key in cell_order
                            if key[:2] == (w, a) and key in slowdown]
                vals.append(sum(per_seed) / len(per_seed)
                            if per_seed else None)
            groups.append((w, vals))
        chart = svg_bar_chart(groups, arch_series,
                              f"slowdown vs {normalize} (lower is better)",
                              ref_line=1.0)
        if chart:
            out.append(chart)

    # The per-cell table: deterministic outputs + full provenance.
    out.append('<table class="data"><thead><tr>'
               '<th>workload</th><th>arch</th><th>seed</th>'
               + ('<th>plan</th>' if plans else '')
               + '<th class="num">cycles</th><th class="num">IPC</th>'
               + ('<th class="num">slowdown</th>' if normalize else '')
               + '<th>Δ vs prev</th><th>output digest</th>'
               '<th>spec</th><th>code</th><th>provenance</th>'
               '</tr></thead><tbody>')
    for key in cell_order:
        row = latest[key]
        head = [
            f"<td>{_esc(row.workload)}</td>",
            f"<td>{_esc(row.arch)}</td>",
            f"<td>{row.seed}</td>",
        ] + ([f"<td>{'—' if key[3] is None else key[3]}</td>"]
             if plans else [])
        if row.quarantined:
            cells = head + [
                '<td class="num">—</td>', '<td class="num">—</td>',
            ]
            if normalize:
                cells.append('<td class="num">—</td>')
            cells += [
                "<td>—</td>", '<td class="hash">—</td>',
                f'<td class="hash">{_esc(row.spec_hash[:12])}</td>',
                f'<td class="hash">{_esc(row.fingerprint[:12])}</td>',
                f"<td>{_provenance_cell(row)}</td>",
            ]
            out.append("<tr>" + "".join(cells) + "</tr>")
            continue
        prev = db.previous_run(row)
        if prev is None:
            delta = '<span class="badge">first run</span>'
        elif prev.cycles == row.cycles:
            delta = f"0 ({_esc(prev.fingerprint[:8])}→)"
        else:
            pct = 100.0 * (row.cycles - prev.cycles) / prev.cycles
            cls = "bad" if pct > 0 else "ok"
            delta = (f'<span class="badge {cls}">{"+" if pct > 0 else ""}'
                     f'{_f(pct, 2)}% cycles</span>')
        stale = (' <span class="badge">stale code</span>'
                 if row.stale(fingerprint) else "")
        cells = head + [
            f'<td class="num">{row.cycles}</td>',
            f'<td class="num">{_f(row.ipc)}</td>',
        ]
        if normalize:
            sd = slowdown.get(key)
            cells.append(f'<td class="num">'
                         f'{_f(sd) if sd is not None else "—"}</td>')
        cells += [
            f"<td>{delta}</td>",
            f'<td class="hash">{_esc(row.output_digest[:12])}</td>',
            f'<td class="hash">{_esc(row.spec_hash[:12])}</td>',
            f'<td class="hash">{_esc(row.fingerprint[:12])}{stale}</td>',
            f"<td>{_provenance_cell(row)}</td>",
        ]
        out.append("<tr>" + "".join(cells) + "</tr>")
    out.append("</tbody></table>")

    # Perf trajectory across code fingerprints: cells recorded more
    # than once, cycles relative to their first recorded run.
    multi: List[Tuple[str, List[Tuple[str, float]]]] = []
    for key in cell_order:
        w, a, s, p = key
        runs = [r for r in history[key] if not r.quarantined]
        if len(runs) < 2 or not runs[0].cycles:
            continue
        label = f"{w} · {a}" + (f" · seed {s}" if len({
            k[2] for k in cell_order}) > 1 else "") + (
            f" · plan {p}" if p is not None else "")
        pts = [(f"run {i + 1}, code {r.fingerprint[:8]}",
                r.cycles / runs[0].cycles)
               for i, r in enumerate(runs)]
        multi.append((label, pts))
    if multi:
        shown = multi[:8]
        out.append("<h3>Cycle trajectory across code fingerprints</h3>")
        out.append(svg_line_chart(
            shown, "cycles relative to first recorded run", ref_line=1.0))
        if len(multi) > len(shown):
            out.append(f'<p class="sub">{len(multi) - len(shown)} further '
                       f'trajectories not plotted.</p>')
    return "".join(out)


def _bench_section(db: RunDB) -> str:
    bench = db.bench_runs()
    if not bench:
        return ""
    out: List[str] = ['<h2 id="bench">Benchmark trajectories</h2>',
                      '<p class="sub">Ingested from '
                      '<code>BENCH_*.json</code>; wall-clock history, '
                      'not a determinism surface.</p>']
    sources: Dict[str, List[dict]] = {}
    for item in bench:
        sources.setdefault(item["source"], []).append(item["entry"])
    for source in sorted(sources):
        entries = sources[source]
        out.append(f"<h3>{_esc(source)} ({len(entries)} run(s))</h3>")
        # Scalar fields only.
        keys: List[str] = []
        for e in entries:
            for k in sorted(e):
                if isinstance(e[k], (int, float, str)) and k not in keys:
                    keys.append(k)
        keys = keys[:8]
        out.append('<table class="data"><thead><tr><th>run</th>'
                   + "".join(f"<th>{_esc(k)}</th>" for k in keys)
                   + "</tr></thead><tbody>")
        for i, e in enumerate(entries):
            cells = "".join(
                f'<td class="num">'
                f'{_f(e[k]) if isinstance(e.get(k), float) else _esc(e.get(k, "—"))}'
                f"</td>" for k in keys)
            out.append(f"<tr><td>{i + 1}</td>{cells}</tr>")
        out.append("</tbody></table>")
    return "".join(out)


def render_report(db: RunDB, fingerprint: Optional[str] = None) -> str:
    """Render the full dashboard; bytes depend only on (db, fingerprint)."""
    if fingerprint is None:
        from repro.harness.sweep import code_fingerprint

        fingerprint = code_fingerprint()
    rows = db.runs()
    meta = db.figures()
    counts = db.counts()

    groups: Dict[Tuple[str, str], List[RunRow]] = {}
    order: List[Tuple[str, str]] = []
    for row in rows:
        key = (row.campaign, row.figure)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    campaigns = []
    for c, _f_ in order:
        if c not in campaigns:
            campaigns.append(c)

    body: List[str] = []
    body.append('<header class="page">')
    body.append("<h1>repro — campaign dashboard</h1>")
    body.append(
        f'<p class="sub">Deterministic Atomic Buffering artifact service · '
        f'{counts["runs"]} stored run(s) across '
        f'{len(campaigns)} campaign(s) · {counts["bench"]} bench '
        f'trajectory entries · current code fingerprint '
        f'<code>{_esc(fingerprint[:12])}</code></p>')
    body.append("</header><main>")
    if not rows and not counts["bench"]:
        body.append('<p class="sub">The run database is empty — run '
                    '<code>repro campaign run &lt;campaign.yaml&gt;</code> '
                    'to populate it.</p>')
    for key in order:
        campaign, figure = key
        body.append(_figure_section(
            db, campaign, figure, groups[key],
            meta.get(key, {"title": figure, "normalize": ""}),
            fingerprint))
    body.append(_bench_section(db))
    body.append("</main>")
    body.append(
        f"<footer>schema <code>{_esc(RUNDB_SCHEMA)}</code> · rendered by "
        f"<code>repro report</code> — a pure function of the database "
        f"(no timestamps or wall-clock in this file; re-rendering is "
        f"byte-identical)</footer>")

    return ("<!DOCTYPE html>\n"
            '<html lang="en"><head><meta charset="utf-8">\n'
            '<meta name="viewport" content="width=device-width, '
            'initial-scale=1">\n'
            "<title>repro — campaign dashboard</title>\n"
            f"<style>{_CSS}</style>\n"
            '</head><body class="viz-root">\n'
            + "".join(body)
            + "\n</body></html>\n")
