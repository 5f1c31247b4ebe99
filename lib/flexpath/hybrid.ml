let run ?guard ?plan ?floor ?executor env ~scheme ~k q =
  Sso.run_with ?guard ?plan ?floor ?executor ~sort_on_score:false ~bucketize:true env
    ~scheme ~k q
