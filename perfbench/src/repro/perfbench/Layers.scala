package repro.perfbench

/** Per-layer metrics derived from a traced run's spans. Times are span self
  * times; counts are the work counts recorded at the span boundary.
  */
object Layers {

  /** Offline stages that run Spark jobs; each reports its jobs and tasks. */
  val SparkStages: Seq[String] = Seq("world.gen", "ner.tag", "ner.extract", "embed.sgns_pairs",
    "candidate.knn", "linkpred.split", "core.accept_score", "storage.write", "preference.user_emb")

  def metrics(spans: Seq[Span], timedRequests: Set[Int], alpcEpochs: Int,
              bookkeepingMs: Double): Seq[(String, Double, String)] = {
    val self = Tracer.selfMs(spans)
    val sparkSelf = Tracer.selfSpark(spans)
    def one(name: String): Span = {
      val s = spans.filter(_.name == name)
      require(s.length == 1, s"expected one $name span, found ${s.length}")
      s.head
    }
    def ms(name: String) = (s"${name}_ms", self(one(name).id), "ms")
    def count(name: String, key: String) = (s"${name.takeWhile(_ != '.')}.$key", one(name).counts(key), "count")
    def medianMs(name: String) = (s"${name}_ms", Stats.median(spans.filter(_.name == name).map(s => self(s.id))), "ms")

    val offline = Seq(
      ms("world.gen"), count("world.gen", "behavior_rows"),
      ms("ner.tag"), count("ner.tag", "mentions"),
      ms("ner.extract"), count("ner.extract", "sequence_rows"),
      ms("embed.sgns_pairs"), count("embed.sgns_pairs", "sgns_pairs"),
      ms("embed.sgns_train"), ms("embed.semantic"),
      ms("candidate.knn"), count("candidate.knn", "edges"),
      ms("linkpred.split"), count("linkpred.split", "train_pairs"), ms("linkpred.struct_features"),
      ms("core.alpc_fit"), ("core.alpc_epoch_ms", self(one("core.alpc_fit").id) / alpcEpochs, "ms"),
      ms("core.ensemble_fit"), ms("core.accept_score"),
      ("core.accept_rate", one("core.accept_score").counts("accepted") /
        one("core.accept_score").counts("candidates"), "ratio"),
      ms("storage.write"), count("storage.write", "published_edges"),
      ms("preference.user_emb"),
      ("trace.week_s", one("week").durMs / 1000, "s"),
    ) ++ SparkStages.flatMap { st =>
      val (j, t) = sparkSelf(one(st).id)
      Seq((s"spark.jobs.$st", j.toDouble, "count"), (s"spark.tasks.$st", t.toDouble, "count"))
    }

    val replay = EpochReplay.Steps.map(medianMs)

    val reqs = spans.filter(s => s.request >= 0 && timedRequests(s.request)).groupBy(_.request).values.toSeq
    def perReq(f: Map[String, Span] => Double): Double =
      Stats.median(reqs.map(r => f(r.map(s => s.name -> s).toMap)))
    val online = Seq(
      ("storage.khop_ms", perReq(r => r("storage.khop").durMs), "ms"),
      ("storage.expanded_entities", perReq(r => r("storage.khop").counts("expanded_entities")), "count"),
      ("storage.hop1_entities", perReq(r => r("storage.khop").counts("hop1_entities")), "count"),
      ("storage.hop2_entities", perReq(r => r("storage.khop").counts("hop2_entities")), "count"),
      ("preference.topk_ms", perReq(r => r("preference.topk").durMs), "ms"),
      ("online.self_ms", perReq(r => r("online.target").durMs - r("storage.khop").durMs -
        r("preference.topk").durMs), "ms"),
      ("spark.jobs_per_request", perReq(r => r("online.target").jobs.toDouble), "count"),
      ("spark.tasks_per_request", perReq(r => r("online.target").tasks.toDouble), "count"),
      ("spark.persisted_rdds_per_request", perReq(r => r("online.target").persisted.toDouble), "count"),
      ("trace.request_p50_ms", perReq(r => r("online.target").durMs), "ms"),
      ("trace.bookkeeping_ms", bookkeepingMs, "ms"),
    )
    offline ++ replay ++ online
  }
}
