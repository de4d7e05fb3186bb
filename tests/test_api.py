"""The package's public names."""

import crosswatch
from crosswatch import transforms


class TestPublicApi:
    def test_every_export_resolves(self):
        for name in crosswatch.__all__:
            assert hasattr(crosswatch, name), name

    def test_removed_names_stay_unexported(self):
        for name in ("GeneralNonneg", "BlockValues", "blocks_at"):
            assert name not in crosswatch.__all__
            assert not hasattr(crosswatch, name), name

    def test_transforms_keeps_its_divided_differences(self):
        # perfbench/tracing.py binds both by name in EXTRA, outside every __all__
        assert callable(transforms.lst_divided_diff)
        assert callable(transforms.resolvent_divided_diff)
