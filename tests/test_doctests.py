import doctest

import kingmesh.gfs
import kingmesh.kings
import kingmesh.mesh
import kingmesh.oracle
import kingmesh.series
import kingmesh.transfer
import kingmesh.verify


def test_docstring_examples():
    modules = (kingmesh.gfs, kingmesh.kings, kingmesh.mesh, kingmesh.oracle, kingmesh.series,
               kingmesh.transfer, kingmesh.verify)
    for module in modules:
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
