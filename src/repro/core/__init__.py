"""The paper's evaluation artifacts: Table I/II rows and renderers
(:mod:`repro.core.tables`) and the figure/headline renderers over a
scenario :class:`~repro.scenario.resultset.ResultSet`
(:mod:`repro.core.figures`).  Campaigns launch through
:mod:`repro.scenario`.
"""
