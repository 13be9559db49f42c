import pytest

from evs.config import build_lab, resolve_config


@pytest.fixture(scope="session")
def base_config():
    return resolve_config()


@pytest.fixture(scope="session")
def lab(base_config):
    return build_lab(base_config)


@pytest.fixture(scope="session")
def degraded_videos(lab):
    """20 fixed-seed degraded inputs with their conditions."""
    from evs.models import make_degraded_video

    items = []
    for seed in range(20):
        c = seed % 4
        z0 = make_degraded_video(lab.temporal_world, c, 0.2, 1000 + seed)
        items.append((z0, c))
    return items
