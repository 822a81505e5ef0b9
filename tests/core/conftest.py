"""Hypothesis profiles for the core suite.

``pytest --hypothesis-profile=ci`` runs the properties whose example
count reads ``settings.default`` at five times their tier-1 count: the
record route's equivalence and window properties, the vector kernel's
layout property, the trainer's reference property
(``test_model.py::TestReferenceTrainer``) and the memoized encoder's
double-encode property (``test_codec_fields.py``), as the CI ``tests``
job's extra step does.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500)
