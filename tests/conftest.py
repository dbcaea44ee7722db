"""Session hooks."""


def pytest_collection_finish(session):
    # test_streams.py's children take most of the suite's CPU time: started as
    # soon as one of its tests is selected, they run beside the in-process tests
    selected = [item for item in session.items if item.path.name == "test_streams.py"]
    if selected and not session.config.option.collectonly:
        selected[0].module.start_children()
