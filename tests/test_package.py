import swarmpath

# Kernel names that stay in their modules and are not package exports.
KERNEL_NAMES = ("LEADER", "LeaderTrack", "nearest_obstacle", "swarm_step", "baseline_step",
                "ObstacleIndex")


def test_every_public_name_resolves():
    missing = [name for name in swarmpath.__all__ if not hasattr(swarmpath, name)]
    assert missing == []
    assert len(set(swarmpath.__all__)) == len(swarmpath.__all__)


def test_kernel_names_are_not_exports():
    assert [name for name in KERNEL_NAMES if name in swarmpath.__all__] == []
