"""Unit tests for QoS classes, priority mapping, and QoSConfig."""

import pytest

from repro.core.qos import (
    Priority,
    QoS,
    QoSConfig,
    WEIGHTS_2_QOS,
    WEIGHTS_3_QOS,
    WEIGHTS_3_QOS_HEAVY,
    map_priority_to_qos,
)


def test_priority_to_qos_bijection():
    assert map_priority_to_qos(Priority.PC) == QoS.HIGH
    assert map_priority_to_qos(Priority.NC) == QoS.MEDIUM
    assert map_priority_to_qos(Priority.BE) == QoS.LOW


def test_canonical_weight_vectors():
    assert WEIGHTS_3_QOS == (8, 4, 1)
    assert WEIGHTS_3_QOS_HEAVY == (50, 4, 1)
    assert WEIGHTS_2_QOS == (4, 1)


def test_default_config_three_levels():
    cfg = QoSConfig()
    assert cfg.num_levels == 3
    assert cfg.lowest == 2


def test_config_rejects_single_level():
    with pytest.raises(ValueError):
        QoSConfig((1,))


def test_config_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        QoSConfig((8, 0, 1))
    with pytest.raises(ValueError):
        QoSConfig((8, -4, 1))


def test_config_rejects_increasing_weights():
    with pytest.raises(ValueError):
        QoSConfig((1, 4, 8))


def test_config_allows_many_levels():
    cfg = QoSConfig((32, 16, 8, 4, 2, 1))
    assert cfg.num_levels == 6
    assert cfg.lowest == 5
