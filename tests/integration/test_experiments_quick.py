"""Smoke tests for the experiment harness (quick variants).

The benchmark suite runs the full variants; these quick runs make sure
every experiment works, its table renders, and the headline shape
assertions hold even at the smallest scale.
"""


class TestQuickExperiments:
    def test_fig01(self, quick_figure):
        t = quick_figure("fig01")
        assert t.data["differ"]
        assert "1.01" in t.render()

    def test_fig02(self, quick_figure):
        t = quick_figure("fig02")
        for row in t.data.values():
            assert row["ts"] > 3
            assert row["tts"] > 3

    def test_fig03(self, quick_figure):
        t = quick_figure("fig03")
        for row in t.data.values():
            assert 0.99 < row["parallel"] + row["commit"] + row["serial"] < 1.01
            assert row["slowdown"] > 1.0

    def test_tables(self, quick_figure):
        t1 = quick_figure("table1")
        assert t1.data["Warp Size"] == 32
        t2 = quick_figure("table2")
        assert all(r["sim_pki"] > 0 for r in t2.data.values())
        t3 = quick_figure("table3")
        assert all(r["sim_pki"] > 0 for r in t3.data.values())

    def test_fig09(self, quick_figure):
        t = quick_figure("fig09")
        assert -1.0 <= t.data["correlation"] <= 1.0

    def test_fig10(self, quick_figure):
        t = quick_figure("fig10")
        gm = t.data["geomean"]
        assert gm["DAB"] < gm["GPUDet"]

    def test_fig12(self, quick_figure):
        t = quick_figure("fig12")
        for row in t.data.values():
            assert row["GWAT-64"] <= row["GWAT-32"] * 1.25

    def test_fig13(self, quick_figure):
        t = quick_figure("fig13")
        for row in t.data.values():
            assert row["GWAT-32-AF"] <= row["GWAT-32"] * 1.1

    def test_fig14(self, quick_figure):
        t = quick_figure("fig14")
        for row in t.data.values():
            assert row["fused_gated"] > row["fused_full"]

    def test_fig15(self, quick_figure):
        t = quick_figure("fig15")
        for fr in t.data.values():
            assert abs(sum(fr.values()) - 1.0) < 0.01

    def test_fig16(self, quick_figure):
        t = quick_figure("fig16")
        for row in t.data.values():
            assert row["GWAT-64-AF + offset"] <= row["GWAT-64-AF"] * 1.1

    def test_fig17(self, quick_figure):
        t = quick_figure("fig17")
        gm = t.data["geomean"]
        assert gm["GWAT-64-AF-Coal"] <= gm["GWAT-64-AF"] * 1.05

    def test_fig18(self, quick_figure):
        t = quick_figure("fig18")
        for row in t.data.values():
            assert row["DAB-NR-CIF"] <= row["DAB"] * 1.05

    def test_determinism_validation(self, quick_figure):
        t = quick_figure("determinism")
        assert t.data["DAB-GWAT-64-AF-Coal"]["deterministic"]
        assert t.data["GPUDet"]["deterministic"]
