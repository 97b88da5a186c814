import doctest

import kingmesh.gfs
import kingmesh.kings
import kingmesh.mesh
import kingmesh.series
import kingmesh.verify


def test_docstring_examples():
    for module in (kingmesh.gfs, kingmesh.kings, kingmesh.mesh, kingmesh.series, kingmesh.verify):
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
