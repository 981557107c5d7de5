import inspect

import cascade_risk


def test_all_lists_each_public_name_once():
    names = cascade_risk.__all__
    assert len(names) == len(set(names))
    public = {name for name, value in vars(cascade_risk).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) == public
