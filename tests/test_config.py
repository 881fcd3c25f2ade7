"""Tests for the machine configuration (Table III parameters)."""

import pytest

from repro.config import AzulConfig, default_config, overrides, paper_config


class TestAzulConfig:
    def test_paper_configuration_matches_table3(self):
        config = paper_config()
        assert config.num_tiles == 4096
        assert config.frequency_hz == 2.0e9
        # 16 TFLOP/s peak: 1 FMAC/PE/cycle.
        assert config.peak_flops == pytest.approx(16.384e12)
        # 432 MB total SRAM: (72+36) KB x 4096.
        assert config.total_sram_bytes == 4096 * 108 * 1024
        # ~6 TB/s bisection: 256 links x 12 B x 2 GHz.
        assert config.bisection_bandwidth_bytes == pytest.approx(6.144e12)

    def test_default_is_scaled_down(self):
        config = default_config()
        assert config.num_tiles == 64
        assert config.peak_flops == pytest.approx(256e9)

    def test_sram_bandwidth(self):
        config = paper_config()
        # 192 TB/s aggregate: two 96-bit accesses per tile per cycle.
        assert config.sram_bandwidth_bytes == pytest.approx(196.6e12, rel=0.01)

    def test_scaled(self):
        config = default_config().scaled(2)
        assert config.mesh_rows == 16
        assert config.num_tiles == 256
        with pytest.raises(ValueError):
            default_config().scaled(0)

    def test_with_replaces_fields(self):
        config = default_config().with_(hop_cycles=3)
        assert config.hop_cycles == 3
        assert config.mesh_rows == default_config().mesh_rows

    def test_frozen(self):
        with pytest.raises(Exception):
            default_config().mesh_rows = 4

    @pytest.mark.parametrize("field,value", [
        ("mesh_rows", 0),
        ("hop_cycles", 0),
        ("sram_access_cycles", 0),
        ("topology", "ring"),
    ])
    def test_invalid_parameters_rejected(self, field, value):
        with pytest.raises(ValueError):
            AzulConfig(**{field: value})


def test_overrides_report_only_cache_and_jobs_settings():
    """Every environment setting selects real behaviour: the cache and
    the sweep width.  No setting picks an implementation."""
    assert set(overrides()) == {
        "REPRO_CACHE_DIR",
        "REPRO_CACHE_MAX_BYTES",
        "REPRO_CACHE_DISABLE",
        "REPRO_JOBS",
    }
